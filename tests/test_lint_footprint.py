"""M801/M802/M803: handler message footprints, fixtures plus the real tree."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint.callgraph import ParsedModule, build_call_graph
from repro.lint.engine import LintConfig, run_lint
from repro.lint.footprint import run_footprint_rules

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]


def footprint_run(*modules: tuple[str, str]):
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
    trees = {p.path: p.tree for p in parsed}
    return run_footprint_rules(build_call_graph(parsed), sources, trees)


CLEAN = (
    "class Ping: pass\n"
    "class Pong: pass\n"
    "\n"
    'MESSAGE_TYPES = {"Ping": Ping, "Pong": Pong}\n'
    "ACKABLE_TYPES = (Pong,)\n"
    "\n"
    "class Node:\n"
    "    def on_message(self, src, message):\n"
    "        self._on_ping(src, message)\n"
    "        self._on_pong(src, message)\n"
    "\n"
    "    def _on_ping(self, src, message: Ping) -> None:\n"
    "        reply = Pong()\n"
    "        self._transmit(reply)\n"
    "\n"
    "    def _on_pong(self, src, message: Pong) -> None:\n"
    "        self.recency.record(message)\n"
)


class TestExtraction:
    def test_clean_fixture_has_no_findings(self):
        violations, table = footprint_run(("repro.core.node", CLEAN))
        assert violations == []
        assert table.message_types == ("Ping", "Pong")
        assert table.ackable_types == ("Pong",)

    def test_footprint_fields(self):
        _, table = footprint_run(("repro.core.node", CLEAN))
        ping = table.handlers["repro.core.node.Node._on_ping"]
        assert ping.consumes == ("Ping",)
        assert ping.emits == ("Pong",)  # constructed reply
        assert ping.writes == {}
        pong = table.handlers["repro.core.node.Node._on_pong"]
        assert pong.consumes == ("Pong",)
        assert pong.emits == ()
        assert list(pong.writes) == ["recency"]

    def test_forwarding_a_typed_parameter_counts_as_emit(self):
        source = CLEAN.replace(
            "        reply = Pong()\n        self._transmit(reply)\n",
            "        self._transmit(message)\n",
        )
        _, table = footprint_run(("repro.core.node", source))
        ping = table.handlers["repro.core.node.Node._on_ping"]
        assert ping.emits == ("Ping",)

    def test_transmit_of_a_local_rebinding_is_not_an_emit(self):
        # Documented precision limit: only direct parameter forwards and
        # constructor calls count, so a rebound alias stays invisible.
        source = CLEAN.replace(
            "        reply = Pong()\n        self._transmit(reply)\n",
            "        alias = message\n        self._transmit(alias)\n",
        )
        _, table = footprint_run(("repro.core.node", source))
        ping = table.handlers["repro.core.node.Node._on_ping"]
        assert ping.emits == ()

    def test_writes_follow_exact_call_closure(self):
        source = CLEAN.replace(
            "        reply = Pong()\n        self._transmit(reply)\n",
            "        self._note(src)\n",
        ) + (
            "\n"
            "    def _note(self, src):\n"
            "        self.table.add_interest(src, 0)\n"
        )
        violations, table = footprint_run(("repro.core.node", source))
        ping = table.handlers["repro.core.node.Node._on_ping"]
        assert list(ping.writes) == ["table"]
        # the helper's write is attributed to the handler's def line
        assert ping.writes["table"] == ping.line
        assert violations == []

    def test_closure_stops_at_other_handlers(self):
        # _on_ping dispatches into _on_pong directly; the callee handler's
        # recency write must not leak into _on_ping's footprint.
        source = CLEAN.replace(
            "        reply = Pong()\n        self._transmit(reply)\n",
            "        self._on_pong(src, message)\n",
        )
        _, table = footprint_run(("repro.core.node", source))
        ping = table.handlers["repro.core.node.Node._on_ping"]
        assert "recency" not in ping.writes

    def test_by_type_collapses_writes_and_commutes(self):
        source = (
            "class Ping: pass\n"
            'MESSAGE_TYPES = {"Ping": Ping}\n'
            "ACKABLE_TYPES = ()\n"
            "class Node:\n"
            "    # repro-mc: commutes[recency]\n"
            "    def _on_a(self, src, message: Ping) -> None:\n"
            "        self.recency.record(message)\n"
            "    def _on_b(self, src, message: Ping) -> None:\n"
            "        self.recency.record(message)\n"
        )
        _, table = footprint_run(("repro.core.node", source))
        view = table.by_type()["Ping"]
        assert view["writes"] == ["recency"]
        # only one of the two writers is annotated: not commutative
        assert view["commutes"] == []

    def test_to_json_shape(self):
        _, table = footprint_run(("repro.core.node", CLEAN))
        data = table.to_json()
        assert data["version"] == 1
        assert data["message_types"] == ["Ping", "Pong"]
        assert set(data["by_type"]) == {"Ping", "Pong"}
        ping = data["handlers"]["repro.core.node.Node._on_ping"]
        assert ping["consumes"] == ["Ping"]
        assert ping["emits"] == ["Pong"]


class TestCommutesMarker:
    def test_marker_on_def_line_comment_above(self):
        source = (
            "class Ping: pass\n"
            'MESSAGE_TYPES = {"Ping": Ping}\n'
            "ACKABLE_TYPES = ()\n"
            "class Node:\n"
            "    # repro-mc: commutes[recency]\n"
            "    def _on_ping(self, src, message: Ping) -> None:\n"
            "        self.recency.record(message)\n"
        )
        _, table = footprint_run(("repro.core.node", source))
        ping = table.handlers["repro.core.node.Node._on_ping"]
        assert ping.commutes == ("recency",)

    def test_marker_in_multi_line_comment_block(self):
        source = (
            "class Ping: pass\n"
            'MESSAGE_TYPES = {"Ping": Ping}\n'
            "ACKABLE_TYPES = ()\n"
            "class Node:\n"
            "    # repro-mc: commutes[recency, known]\n"
            "    # reviewed: record() is last-writer-wins on the frame stamp\n"
            "    # so delivery order inside one flush is unobservable\n"
            "    def _on_ping(self, src, message: Ping) -> None:\n"
            "        self.recency.record(message)\n"
        )
        _, table = footprint_run(("repro.core.node", source))
        ping = table.handlers["repro.core.node.Node._on_ping"]
        assert ping.commutes == ("recency", "known")

    def test_marker_does_not_jump_over_code(self):
        source = (
            "class Ping: pass\n"
            'MESSAGE_TYPES = {"Ping": Ping}\n'
            "ACKABLE_TYPES = ()\n"
            "class Node:\n"
            "    # repro-mc: commutes[recency]\n"
            "    def _other(self):\n"
            "        pass\n"
            "    def _on_ping(self, src, message: Ping) -> None:\n"
            "        self.recency.record(message)\n"
        )
        _, table = footprint_run(("repro.core.node", source))
        ping = table.handlers["repro.core.node.Node._on_ping"]
        assert ping.commutes == ()


class TestM801:
    def test_registered_type_without_handler(self):
        source = CLEAN.replace(
            'MESSAGE_TYPES = {"Ping": Ping, "Pong": Pong}',
            'MESSAGE_TYPES = {"Ping": Ping, "Pong": Pong, "Ghost": Ping}',
        )
        violations, _ = footprint_run(("repro.core.node", source))
        assert [v.rule for v in violations] == ["M801"]
        assert "`Ghost`" in violations[0].message
        assert "Ghost" in violations[0].message

    def test_unreachable_handler_does_not_count(self):
        # _on_pong exists but on_message never dispatches to it: the
        # registered Pong type is effectively dropped.
        source = CLEAN.replace("        self._on_pong(src, message)\n", "")
        violations, _ = footprint_run(("repro.core.node", source))
        assert [v.rule for v in violations] == ["M801"]
        assert "`Pong`" in violations[0].message

    def test_without_receive_entry_every_handler_is_reachable(self):
        source = (
            "class Ping: pass\n"
            'MESSAGE_TYPES = {"Ping": Ping}\n'
            "ACKABLE_TYPES = ()\n"
            "class Node:\n"
            "    def _on_ping(self, src, message: Ping) -> None:\n"
            "        pass\n"
        )
        violations, _ = footprint_run(("repro.core.node", source))
        assert violations == []


M802_BASE = (
    "class Ping: pass\n"
    "class Evict: pass\n"
    "\n"
    'MESSAGE_TYPES = {"Ping": Ping, "Evict": Evict}\n'
    "ACKABLE_TYPES = ()\n"
    "\n"
    "class Node:\n"
    "    def on_message(self, src, message):\n"
    "        self._on_ping(src, message)\n"
    "        self._on_evict(src, message)\n"
    "\n"
    "    def _on_ping(self, src, message: Ping) -> None:\n"
    "        self._transmit(Evict())\n"
    "\n"
    "    def _on_evict(self, src, message: Evict) -> None:\n"
    "        self.membership.record_proposal(src, 1, 2, 3)\n"
)


class TestM802:
    def test_progress_bearing_emit_outside_ackable(self):
        violations, _ = footprint_run(("repro.core.node", M802_BASE))
        assert [v.rule for v in violations] == ["M802"]
        assert "`Evict`" in violations[0].message
        assert "ACKABLE_TYPES" in violations[0].message

    def test_ackable_emit_is_clean(self):
        source = M802_BASE.replace(
            "ACKABLE_TYPES = ()", "ACKABLE_TYPES = (Evict,)"
        )
        violations, _ = footprint_run(("repro.core.node", source))
        assert violations == []

    def test_non_progress_emit_is_clean(self):
        # the consumer writes recency, a self-healing store: no finding
        source = M802_BASE.replace(
            "        self.membership.record_proposal(src, 1, 2, 3)\n",
            "        self.recency.record(message)\n",
        )
        violations, _ = footprint_run(("repro.core.node", source))
        assert violations == []


M803_BASE = (
    "class Ping: pass\n"
    "class Pong: pass\n"
    "\n"
    'MESSAGE_TYPES = {"Ping": Ping, "Pong": Pong}\n'
    "ACKABLE_TYPES = ()\n"
    "\n"
    "class Node:\n"
    "    def on_message(self, src, message):\n"
    "        self._on_ping(src, message)\n"
    "        self._on_pong(src, message)\n"
    "\n"
    "    def _on_ping(self, src, message: Ping) -> None:\n"
    "        self.membership.record_proposal(src, 1, 2, 3)\n"
    "\n"
    "    def _on_pong(self, src, message: Pong) -> None:\n"
    "        self.membership.apply_removals(1)\n"
)


class TestM803:
    def test_unannotated_writer_pair(self):
        violations, _ = footprint_run(("repro.core.node", M803_BASE))
        assert [v.rule for v in violations] == ["M803"]
        message = violations[0].message
        assert "`_on_ping`" in message and "`_on_pong`" in message
        assert "membership" in message

    def test_both_annotated_is_clean(self):
        source = M803_BASE.replace(
            "    def _on_ping",
            "    # repro-mc: commutes[membership]\n    def _on_ping",
        ).replace(
            "    def _on_pong",
            "    # repro-mc: commutes[membership]\n    def _on_pong",
        )
        violations, _ = footprint_run(("repro.core.node", source))
        assert violations == []

    def test_one_annotation_is_not_enough(self):
        source = M803_BASE.replace(
            "    def _on_ping",
            "    # repro-mc: commutes[membership]\n    def _on_ping",
        )
        violations, _ = footprint_run(("repro.core.node", source))
        assert [v.rule for v in violations] == ["M803"]
        # only the unannotated handler is named as needing review
        assert "annotation on _on_pong " in violations[0].message


class TestRealTree:
    def test_repo_is_clean_and_exports_a_footprint_table(self):
        report = run_lint(LintConfig(root=REPO_ROOT))
        m_rules = [v for v in report.violations if v.rule.startswith("M8")]
        assert m_rules == []
        table = report.footprints
        assert table is not None
        proposal = next(
            fp
            for qname, fp in table.handlers.items()
            if qname.endswith("._on_removal_proposal")
        )
        assert proposal.consumes == ("RemovalProposal",)
        assert "membership" in proposal.writes
        assert "membership" in proposal.commutes
        # the defense burst responds with PositionUpdates, and the
        # forwards analysis must not claim it re-emits RemovalProposal
        assert "RemovalProposal" not in proposal.emits
