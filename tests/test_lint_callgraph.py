"""callgraph.py: qualified names, resolution tiers, and traversals."""

from __future__ import annotations

import ast

import pytest

from repro.lint.callgraph import (
    ParsedModule,
    bind_arguments,
    build_call_graph,
    module_name_for,
)

pytestmark = pytest.mark.lint


def graph_of(*modules: tuple[str, str]):
    return build_call_graph(
        [
            ParsedModule(
                module=name,
                path=f"src/{name.replace('.', '/')}.py",
                tree=ast.parse(source),
            )
            for name, source in modules
        ]
    )


class TestModuleNames:
    def test_plain_module(self):
        assert module_name_for("src/repro/core/node.py") == "repro.core.node"

    def test_package_init_maps_to_package(self):
        assert module_name_for("src/repro/game/__init__.py") == "repro.game"

    def test_outside_src_is_none(self):
        assert module_name_for("tests/test_foo.py") is None


class TestCollection:
    def test_functions_and_methods_get_qualified_names(self):
        graph = graph_of(
            (
                "repro.demo",
                "def helper():\n    pass\n"
                "class Node:\n"
                "    def run(self):\n        pass\n",
            )
        )
        assert "repro.demo.helper" in graph.functions
        assert "repro.demo.Node.run" in graph.functions
        info = graph.functions["repro.demo.Node.run"]
        assert info.class_name == "Node"
        assert info.name == "run"


class TestResolution:
    def test_local_call_is_exact(self):
        graph = graph_of(
            ("repro.demo", "def a():\n    b()\ndef b():\n    pass\n")
        )
        assert graph.callees("repro.demo.a") == {"repro.demo.b"}
        assert graph.exact_callees("repro.demo.a") == {"repro.demo.b"}

    def test_imported_function_resolves_across_modules(self):
        graph = graph_of(
            ("repro.util", "def shared():\n    pass\n"),
            (
                "repro.demo",
                "from repro.util import shared\ndef a():\n    shared()\n",
            ),
        )
        assert "repro.util.shared" in graph.exact_callees("repro.demo.a")

    def test_self_method_resolves_to_enclosing_class(self):
        graph = graph_of(
            (
                "repro.demo",
                "class Node:\n"
                "    def outer(self):\n        self.inner()\n"
                "    def inner(self):\n        pass\n",
            )
        )
        assert graph.exact_callees("repro.demo.Node.outer") == {
            "repro.demo.Node.inner"
        }

    def test_unknown_receiver_falls_back_by_name(self):
        graph = graph_of(
            (
                "repro.table",
                "class Table:\n"
                "    def lookup(self):\n        pass\n",
            ),
            ("repro.demo", "def a(t):\n    t.lookup()\n"),
        )
        # by-name guess appears in callees() but never in exact_callees()
        assert "repro.table.Table.lookup" in graph.callees("repro.demo.a")
        assert "repro.table.Table.lookup" not in graph.exact_callees(
            "repro.demo.a"
        )

    def test_callers_is_the_reverse_of_callees(self):
        graph = graph_of(
            ("repro.demo", "def a():\n    b()\ndef b():\n    pass\n")
        )
        assert graph.callers("repro.demo.b") == {"repro.demo.a"}


class TestTraversals:
    SOURCE = (
        "def root():\n    mid()\n"
        "def mid():\n    leaf()\n"
        "def leaf():\n    pass\n"
        "def lonely():\n    pass\n"
    )

    def test_transitive_reachability(self):
        graph = graph_of(("repro.demo", self.SOURCE))
        assert graph.transitively_reaches(
            "repro.demo.root", frozenset({"repro.demo.leaf"})
        )
        assert not graph.transitively_reaches(
            "repro.demo.lonely", frozenset({"repro.demo.leaf"})
        )


class TestRealTree:
    def test_real_node_transmit_chain(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        modules = []
        for file in sorted((root / "src" / "repro").rglob("*.py")):
            rel = file.relative_to(root).as_posix()
            name = module_name_for(rel)
            if name is None:
                continue
            modules.append(
                ParsedModule(
                    module=name, path=rel, tree=ast.parse(file.read_text())
                )
            )
        graph = build_call_graph(modules)
        transmit = "repro.core.node.WatchmenNode._transmit"
        unfiltered = "repro.core.node.WatchmenNode._transmit_unfiltered"
        assert transmit in graph.functions
        assert unfiltered in graph.exact_callees(transmit)


class TestCallSites:
    def test_sites_keep_the_ast_node_and_resolution_split(self):
        graph = graph_of(
            (
                "repro.demo",
                "def helper(x):\n    return x\n"
                "def run():\n    helper(1)\n",
            )
        )
        sites = graph.call_sites("repro.demo.run")
        assert len(sites) == 1
        site = sites[0]
        assert site.caller == "repro.demo.run"
        assert site.line == 4
        assert isinstance(site.call, ast.Call)
        assert site.exact == frozenset({"repro.demo.helper"})
        assert site.by_name == frozenset()

    def test_unknown_receiver_lands_on_the_by_name_tier(self):
        graph = graph_of(
            (
                "repro.demo",
                "class Signer:\n"
                "    def verify(self, data):\n        return True\n"
                "class Node:\n"
                "    def check(self, data):\n"
                "        return self.signer.verify(data)\n",
            )
        )
        (site,) = graph.call_sites("repro.demo.Node.check")
        assert site.exact == frozenset()
        assert site.by_name == frozenset({"repro.demo.Signer.verify"})


class TestReceiverTypes:
    SOURCE = (
        "class Signer:\n"
        "    def verify(self, data):\n        return True\n"
        "class Node:\n"
        "    def __init__(self, signer: Signer):\n"
        "        self.signer = signer\n"
        "    def check(self, data):\n"
        "        return self.signer.verify(data)\n"
    )

    def test_annotated_init_attribute_resolves_exact(self):
        graph = graph_of(("repro.demo", self.SOURCE))
        (site,) = graph.call_sites("repro.demo.Node.check")
        assert site.exact == frozenset({"repro.demo.Signer.verify"})
        assert site.by_name == frozenset()

    def test_direct_construction_types_the_attribute(self):
        graph = graph_of(
            (
                "repro.demo",
                "class Signer:\n"
                "    def verify(self, data):\n        return True\n"
                "class Node:\n"
                "    def __init__(self):\n"
                "        self.signer = Signer()\n"
                "    def check(self, data):\n"
                "        return self.signer.verify(data)\n",
            )
        )
        (site,) = graph.call_sites("repro.demo.Node.check")
        assert site.exact == frozenset({"repro.demo.Signer.verify"})


class TestClassesIn:
    def test_lists_top_level_classes(self):
        graph = graph_of(
            (
                "repro.core.messages",
                "class StateUpdate:\n    pass\n"
                "class PositionUpdate:\n    pass\n"
                "def helper():\n    pass\n",
            )
        )
        assert graph.classes_in("repro.core.messages") == frozenset(
            {"StateUpdate", "PositionUpdate"}
        )
        assert graph.classes_in("repro.unknown") == frozenset()


class TestBindArguments:
    def test_positional_and_keyword_binding(self):
        graph = graph_of(
            (
                "repro.demo",
                "def callee(a, b, c=None):\n    pass\n"
                "def caller():\n    callee(1, c=2, b=3)\n",
            )
        )
        callee = graph.functions["repro.demo.callee"]
        (site,) = graph.call_sites("repro.demo.caller")
        bound = bind_arguments(callee, site.call)
        assert set(bound) == {"a", "b", "c"}
        assert ast.literal_eval(bound["a"]) == 1
        assert ast.literal_eval(bound["b"]) == 3
        assert ast.literal_eval(bound["c"]) == 2

    def test_self_is_skipped_for_methods(self):
        graph = graph_of(
            (
                "repro.demo",
                "class Node:\n"
                "    def callee(self, payload):\n        pass\n"
                "    def caller(self):\n        self.callee(41)\n",
            )
        )
        callee = graph.functions["repro.demo.Node.callee"]
        (site,) = graph.call_sites("repro.demo.Node.caller")
        bound = bind_arguments(callee, site.call)
        assert set(bound) == {"payload"}
        assert ast.literal_eval(bound["payload"]) == 41

    def test_binding_stops_at_starred_arguments(self):
        graph = graph_of(
            (
                "repro.demo",
                "def callee(a, b):\n    pass\n"
                "def caller(rest):\n    callee(1, *rest)\n",
            )
        )
        callee = graph.functions["repro.demo.callee"]
        (site,) = graph.call_sites("repro.demo.caller")
        bound = bind_arguments(callee, site.call)
        assert set(bound) == {"a"}

    def test_double_star_kwargs_is_ignored_not_bound(self):
        # `**extra` at the call site has keyword.arg None: nothing can be
        # said statically about which parameters it fills, so binding
        # neither crashes nor invents entries — explicit arguments around
        # it still bind.
        graph = graph_of(
            (
                "repro.demo",
                "def callee(a, b, c):\n    pass\n"
                "def caller(extra):\n    callee(1, **extra)\n",
            )
        )
        callee = graph.functions["repro.demo.callee"]
        (site,) = graph.call_sites("repro.demo.caller")
        bound = bind_arguments(callee, site.call)
        assert set(bound) == {"a"}
        assert ast.literal_eval(bound["a"]) == 1

    def test_keyword_only_parameters_bind_by_name(self):
        graph = graph_of(
            (
                "repro.demo",
                "def callee(a, *, flag, depth=0):\n    pass\n"
                "def caller():\n    callee(1, flag=True)\n",
            )
        )
        callee = graph.functions["repro.demo.callee"]
        (site,) = graph.call_sites("repro.demo.caller")
        bound = bind_arguments(callee, site.call)
        assert set(bound) == {"a", "flag"}
        assert ast.literal_eval(bound["flag"]) is True

    def test_keyword_only_parameters_never_bind_positionally(self):
        # The extra positional argument has no positional slot to land
        # in; silently assigning it to the keyword-only parameter would
        # model a call Python itself rejects.
        graph = graph_of(
            (
                "repro.demo",
                "def callee(a, *, flag):\n    pass\n"
                "def caller():\n    callee(1, 2)\n",
            )
        )
        callee = graph.functions["repro.demo.callee"]
        (site,) = graph.call_sites("repro.demo.caller")
        bound = bind_arguments(callee, site.call)
        assert set(bound) == {"a"}

    def test_defaulted_parameter_left_unbound_when_omitted(self):
        # A parameter the call site does not mention stays out of the
        # binding entirely — the callee's default expression is evaluated
        # in the callee, and the taint pass must not attribute it to the
        # caller.
        graph = graph_of(
            (
                "repro.demo",
                "def callee(a, depth=0, *, flag=False):\n    pass\n"
                "def caller():\n    callee(1)\n",
            )
        )
        callee = graph.functions["repro.demo.callee"]
        (site,) = graph.call_sites("repro.demo.caller")
        bound = bind_arguments(callee, site.call)
        assert set(bound) == {"a"}

    def test_positional_args_after_starred_are_not_bound(self):
        # Past a `*rest` the positional slot indices are unknowable, so
        # binding stops even for the concrete arguments that follow;
        # keywords after the star still bind by name.
        graph = graph_of(
            (
                "repro.demo",
                "def callee(a, b, c, d=None):\n    pass\n"
                "def caller(rest):\n    callee(1, *rest, 9, d=4)\n",
            )
        )
        callee = graph.functions["repro.demo.callee"]
        (site,) = graph.call_sites("repro.demo.caller")
        bound = bind_arguments(callee, site.call)
        assert set(bound) == {"a", "d"}
        assert ast.literal_eval(bound["a"]) == 1
        assert ast.literal_eval(bound["d"]) == 4

    def test_positional_overflow_is_dropped(self):
        graph = graph_of(
            (
                "repro.demo",
                "def callee(a):\n    pass\n"
                "def caller():\n    callee(1, 2, 3)\n",
            )
        )
        callee = graph.functions["repro.demo.callee"]
        (site,) = graph.call_sites("repro.demo.caller")
        bound = bind_arguments(callee, site.call)
        assert set(bound) == {"a"}
        assert ast.literal_eval(bound["a"]) == 1
