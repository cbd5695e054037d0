"""F402: the information-flow rule, must-flag and must-pass fixtures."""

from __future__ import annotations

import ast

import pytest

from repro.lint.callgraph import ParsedModule, build_call_graph
from repro.lint.flow import run_flow_rules

pytestmark = pytest.mark.lint


def fixture_tree(*modules: tuple[str, str]):
    """(call graph, sources) of in-memory ``(module name, source)`` pairs."""
    parsed = [
        ParsedModule(
            module=name,
            path=f"src/{name.replace('.', '/')}.py",
            tree=ast.parse(source),
        )
        for name, source in modules
    ]
    sources = {
        p.path: source.splitlines()
        for p, (_, source) in zip(parsed, modules)
    }
    return build_call_graph(parsed), sources


def flow_violations(*modules: tuple[str, str]):
    return run_flow_rules(*fixture_tree(*modules))


class TestF402:
    def test_flags_raw_snapshot_in_position_update(self):
        violations = flow_violations(
            (
                "repro.core.node",
                "from repro.core.messages import PositionUpdate\n"
                "class Node:\n"
                "    def publish(self, snapshot):\n"
                "        return PositionUpdate(snapshot=snapshot)\n",
            ),
        )
        assert [v.rule for v in violations] == ["F402"]
        assert "PositionUpdate.snapshot" in violations[0].message

    def test_passes_with_reduction_helper_call(self):
        violations = flow_violations(
            (
                "repro.core.node",
                "from repro.core.messages import PositionUpdate\n"
                "class Node:\n"
                "    def publish(self, snapshot):\n"
                "        return PositionUpdate(snapshot=snapshot.position_only())\n",
            ),
        )
        assert violations == []

    def test_passes_via_transitive_helper(self):
        # _predict -> predict_linear, mirroring Publisher._guidance_prediction
        violations = flow_violations(
            (
                "repro.game.deadreckoning",
                "def predict_linear(snapshot, horizon):\n    return snapshot\n",
            ),
            (
                "repro.core.node",
                "from repro.core.messages import GuidanceMessage\n"
                "from repro.game.deadreckoning import predict_linear\n"
                "class Node:\n"
                "    def _predict(self, snapshot):\n"
                "        return predict_linear(snapshot, 20)\n"
                "    def publish(self, snapshot):\n"
                "        return GuidanceMessage(prediction=self._predict(snapshot))\n",
            ),
        )
        assert violations == []

    def test_flags_guidance_prediction_from_raw_value(self):
        violations = flow_violations(
            (
                "repro.core.node",
                "from repro.core.messages import GuidanceMessage\n"
                "class Node:\n"
                "    def publish(self, snapshot):\n"
                "        return GuidanceMessage(prediction=snapshot)\n",
            ),
        )
        assert [v.rule for v in violations] == ["F402"]

    def test_reduced_variable_is_tracked(self):
        violations = flow_violations(
            (
                "repro.core.node",
                "from repro.core.messages import PositionUpdate\n"
                "class Node:\n"
                "    def publish(self, snapshot):\n"
                "        reduced = snapshot.position_only()\n"
                "        return PositionUpdate(snapshot=reduced)\n",
            ),
        )
        assert violations == []

    def test_wire_codec_is_out_of_scope(self):
        violations = flow_violations(
            (
                "repro.core.wire",
                "from repro.core.messages import PositionUpdate\n"
                "def decode(payload):\n"
                "    return PositionUpdate(snapshot=payload)\n",
            ),
        )
        assert violations == []


def real_tree(mutate=None, mutated="src/repro/core/node.py"):
    """(call graph, sources) of src/repro, one file optionally rewritten."""
    import pathlib

    from repro.lint.callgraph import module_name_for

    root = pathlib.Path(__file__).resolve().parent.parent
    parsed = []
    sources = {}
    for file in sorted((root / "src" / "repro").rglob("*.py")):
        rel = file.relative_to(root).as_posix()
        name = module_name_for(rel)
        if name is None:
            continue
        text = file.read_text()
        if mutate is not None and rel == mutated:
            text = mutate(text)
        parsed.append(ParsedModule(module=name, path=rel, tree=ast.parse(text)))
        sources[rel] = text.splitlines()
    return build_call_graph(parsed), sources


class TestRealTreeIsClean:
    def test_no_flow_violations_in_repo(self):
        assert run_flow_rules(*real_tree()) == []


class TestF402IsNotSubsumedByS703:
    """S703 tracks *known* exact sources; F402 denies by default.

    The audit docs/STATIC_ANALYSIS.md records: S703 catches every F402
    finding whose payload it can trace to an ``AvatarSnapshot``-typed
    value, and misses the ones that come from anywhere else — so F402
    stays.  This is also F402's real-tree mutation test.
    """

    GUIDANCE = "prediction=self._guidance_prediction(frame, snapshot),"

    def _rules_fired(self, replacement: str) -> tuple[list[str], list[str]]:
        from repro.lint.taint import run_taint_rules

        def mutate(text: str) -> str:
            assert self.GUIDANCE in text
            return text.replace(self.GUIDANCE, replacement)

        graph, sources = real_tree(mutate, "src/repro/core/publisher.py")
        f402 = [v.rule for v in run_flow_rules(graph, sources) if v.rule == "F402"]
        s703 = [
            v.rule for v in run_taint_rules(graph, sources)[0] if v.rule == "S703"
        ]
        return f402, s703

    def test_typed_snapshot_payload_trips_both(self):
        assert self._rules_fired("prediction=snapshot,") == (["F402"], ["S703"])

    def test_untyped_exact_source_trips_only_f402(self):
        # own_future is an untyped oracle returning the player's *exact*
        # upcoming snapshot: no source S703 knows, but not a reduction either
        assert self._rules_fired("prediction=self.own_future(frame),") == (
            ["F402"],
            [],
        )
