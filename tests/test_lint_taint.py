"""S701/S702/S703: interprocedural taint, fixtures plus real-tree mutations."""

from __future__ import annotations

import ast

import pytest

from repro.lint.callgraph import ParsedModule, build_call_graph
from repro.lint.taint import run_taint_rules
from tests.test_lint_flow import real_tree

pytestmark = pytest.mark.lint


def taint_violations(*modules: tuple[str, str]):
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
    violations, _stats = run_taint_rules(build_call_graph(parsed), sources)
    return violations


class TestS701:
    def test_flags_unverified_payload_into_auth_call(self):
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def on_message(self, src, message: GameMessage):\n"
                "        self.membership.heard_from(message.sender_id, 0)\n",
            )
        )
        assert [v.rule for v in violations] == ["S701"]
        assert "heard_from" in violations[0].message
        assert "network payload parameter 'message'" in violations[0].message

    def test_flags_payload_write_into_authoritative_store(self):
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def on_message(self, src, message: GameMessage):\n"
                "        self.known[message.sender_id] = message\n",
            )
        )
        assert [v.rule for v in violations] == ["S701"]
        assert "authoritative store 'known'" in violations[0].message

    def test_flags_payload_dispatched_into_handler(self):
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def on_message(self, src, message: GameMessage):\n"
                "        self._on_update(src, message)\n"
                "    def _on_update(self, src, message):\n"
                "        pass\n",
            )
        )
        assert [v.rule for v in violations] == ["S701"]
        assert "dispatch into handler _on_update()" in violations[0].message

    def test_interprocedural_flow_carries_a_witness_path(self):
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def on_message(self, src, message: GameMessage):\n"
                "        self._route(message)\n"
                "    def _route(self, update):\n"
                "        self.membership.heard_from(update.sender_id, 0)\n",
            )
        )
        assert [v.rule for v in violations] == ["S701"]
        message = violations[0].message
        assert "taint path:" in message
        assert "passed on by core.node.Node.on_message:3" in message
        assert "authoritative-state mutation heard_from()" in message

    def test_marker_sanitizer_kills_payload(self):
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def on_message(self, src, message: GameMessage):\n"
                "        self._check(src, message)\n"
                "        self.membership.heard_from(message.sender_id, 0)\n"
                "    def _check(self, src, message):  # repro-taint: sanitizer\n"
                "        return True\n",
            )
        )
        assert violations == []

    def test_by_name_verify_must_not_vouch(self):
        # `self.helper.verify(...)` only matches a sanitizer-marked `verify`
        # by bare name (the receiver's type is unknown) — that guess must
        # not kill the taint, so the sink still fires.
        violations = taint_violations(
            (
                "repro.core.other",
                "class Helper:\n"
                "    # repro-taint: sanitizer\n"
                "    def verify(self, src, message):\n"
                "        return True\n",
            ),
            (
                "repro.core.node",
                "class Node:\n"
                "    def on_message(self, src, message: GameMessage):\n"
                "        self.helper.verify(src, message)\n"
                "        self.membership.heard_from(message.sender_id, 0)\n",
            ),
        )
        assert [v.rule for v in violations] == ["S701"]

    def test_typed_receiver_makes_the_sanitizer_exact(self):
        # Same shape as above, but __init__ annotates the attribute type,
        # so the verify call resolves on the exact tier and sanitizes.
        violations = taint_violations(
            (
                "repro.core.node",
                "class Helper:\n"
                "    # repro-taint: sanitizer\n"
                "    def verify(self, src, message):\n"
                "        return True\n"
                "class Node:\n"
                "    def __init__(self, helper: Helper):\n"
                "        self.helper = helper\n"
                "    def on_message(self, src, message: GameMessage):\n"
                "        self.helper.verify(src, message)\n"
                "        self.membership.heard_from(message.sender_id, 0)\n",
            )
        )
        assert violations == []

    def test_out_of_scope_module_is_not_reported(self):
        violations = taint_violations(
            (
                "repro.obs.report",
                "class Sink:\n"
                "    def on_message(self, src, message: GameMessage):\n"
                "        self.membership.heard_from(message.sender_id, 0)\n",
            )
        )
        assert violations == []


class TestS702:
    def test_flags_secret_attribute_into_transmit(self):
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def leak(self, peer):\n"
                "        key = self.registry.secret\n"
                "        self._transmit(key, peer)\n",
            )
        )
        assert [v.rule for v in violations] == ["S702"]
        assert "read of secret attribute '.secret'" in violations[0].message
        assert "transmit/encode call _transmit()" in violations[0].message

    def test_flags_key_for_result_into_message_constructor(self):
        violations = taint_violations(
            (
                "repro.core.messages",
                "class StateUpdate:\n"
                "    def kind(self):\n"
                "        return 'state'\n",
            ),
            (
                "repro.core.node",
                "class Node:\n"
                "    def leak(self, peer):\n"
                "        key = self.registry.key_for(peer)\n"
                "        update = StateUpdate(payload=key)\n"
                "        self._transmit(update, peer)\n",
            ),
        )
        assert "S702" in {v.rule for v in violations}
        ctor_hits = [v for v in violations if "message constructor" in v.message]
        assert len(ctor_hits) == 1

    def test_sign_declassifies_its_result(self):
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def publish(self, peer, body):\n"
                "        key = self.registry.secret\n"
                "        sealed = self.signer.sign(key, body)\n"
                "        self._transmit(sealed, peer)\n",
            )
        )
        assert violations == []

    def test_crypto_layer_is_exempt(self):
        violations = taint_violations(
            (
                "repro.crypto.keys",
                "class Registry:\n"
                "    def export(self, peer):\n"
                "        key = self.secret\n"
                "        self._transmit(key, peer)\n",
            )
        )
        assert violations == []


class TestS703:
    def test_flags_exact_state_into_reduced_field(self):
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def publish(self, peer):\n"
                "        exact = self.snapshot\n"
                "        update = PositionUpdate(snapshot=exact)\n"
                "        self._transmit(update, peer)\n",
            )
        )
        assert [v.rule for v in violations] == ["S703"]
        assert "reduced-resolution field PositionUpdate.snapshot" in (
            violations[0].message
        )

    def test_flags_exact_parameter_through_a_helper(self):
        # The helper-indirection case F402 cannot see: the snapshot enters
        # one function and reaches the ctor in another.
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def publish(self, snapshot: AvatarSnapshot, peer):\n"
                "        self._emit(snapshot, peer)\n"
                "    def _emit(self, state, peer):\n"
                "        update = PositionUpdate(snapshot=state)\n"
                "        self._transmit(update, peer)\n",
            )
        )
        assert [v.rule for v in violations] == ["S703"]
        assert "passed on by" in violations[0].message

    def test_reducer_cleans_its_result(self):
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def publish(self, peer):\n"
                "        reduced = position_only(self.snapshot)\n"
                "        update = PositionUpdate(snapshot=reduced)\n"
                "        self._transmit(update, peer)\n",
            )
        )
        assert violations == []

    def test_component_read_is_already_a_reduction(self):
        violations = taint_violations(
            (
                "repro.core.node",
                "class Node:\n"
                "    def publish(self, peer):\n"
                "        x = self.snapshot.position\n"
                "        update = PositionUpdate(snapshot=x)\n"
                "        self._transmit(update, peer)\n",
            )
        )
        assert violations == []


class TestStats:
    def test_effort_counters_are_populated(self):
        parsed = [
            ParsedModule(
                module="repro.core.node",
                path="src/repro/core/node.py",
                tree=ast.parse(
                    "class Node:\n"
                    "    def on_message(self, src, message: GameMessage):\n"
                    "        self._route(message)\n"
                    "    def _route(self, update):\n"
                    "        pass\n"
                ),
            )
        ]
        _violations, stats = run_taint_rules(
            build_call_graph(parsed), {"src/repro/core/node.py": []}
        )
        assert stats.functions_analyzed == 2
        # the call-out into _route re-queues it: more visits than functions
        assert stats.fixpoint_iterations >= stats.functions_analyzed


# -- real-tree acceptance: the mutations this family exists to catch --------


def real_tree_violations(mutate=None):
    """Run the S rules over the actual src/repro tree.

    ``mutate`` (optional) rewrites the source text of core/node.py before
    parsing — the mutation-acceptance fixture hook.
    """
    violations, _stats = run_taint_rules(*real_tree(mutate))
    return violations


VERIFY_CALL = "if not self._verify_envelope(src, message, signed):"
PUBLISH_ANCHOR = "    def _route_publication("

RAW_INGEST_METHOD = (
    "    def _ingest_raw(self, frame_bytes):\n"
    "        update = decode_bytes(frame_bytes)\n"
    "        self.known[update.sender_id] = update.snapshot\n"
    "\n"
)

LEAK_METHOD = (
    "    def _leak_key(self, peer):\n"
    "        leaked = self.signer.registry.key_for(self.player_id)\n"
    "        update = PositionUpdate(sender_id=self.player_id, frame=0,\n"
    "                                payload=leaked)\n"
    "        self._transmit(update, peer)\n"
    "\n"
)


class TestRealTree:
    def test_clean_tree_has_zero_s_findings(self):
        assert real_tree_violations() == []

    def test_deleting_envelope_verification_raises_s701(self):
        def drop_verification(text: str) -> str:
            assert VERIFY_CALL in text
            return text.replace(VERIFY_CALL, "if False:")

        violations = real_tree_violations(drop_verification)
        s701 = [v for v in violations if v.rule == "S701"]
        assert s701, "unverified payload flow must be detected"
        # reported at the sink: in the node, or in the client book its
        # handlers hand the unverified subscription / handoff to
        assert {v.path for v in s701} == {
            "src/repro/core/node.py",
            "src/repro/core/clients.py",
        }
        assert any("taint path:" in v.message for v in s701)

    def test_leaking_key_material_into_a_payload_raises_s702(self):
        def add_leak(text: str) -> str:
            assert PUBLISH_ANCHOR in text
            return text.replace(PUBLISH_ANCHOR, LEAK_METHOD + PUBLISH_ANCHOR, 1)

        violations = real_tree_violations(add_leak)
        s702 = [v for v in violations if v.rule == "S702"]
        assert s702, "key material reaching a send must be detected"
        assert any("key material from key_for()" in v.message for v in s702)

    def test_unverified_decode_bytes_result_into_known_raises_s701(self):
        # The live codec is a payload source: bytes off the wire that skip
        # _verify_envelope must not reach authoritative state.
        def add_raw_ingest(text: str) -> str:
            assert PUBLISH_ANCHOR in text
            return text.replace(
                PUBLISH_ANCHOR, RAW_INGEST_METHOD + PUBLISH_ANCHOR, 1
            )

        violations = real_tree_violations(add_raw_ingest)
        s701 = [v for v in violations if v.rule == "S701"]
        assert s701, "decode_bytes() output must be tainted as network payload"
        assert any("decode_bytes" in v.message for v in s701)
        assert any("known" in v.message for v in s701)
