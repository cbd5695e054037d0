"""P-family lint rules against synthetic protocol trees and the real repo."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.protocol import ProtocolSources, run_protocol_rules

REPO_ROOT = Path(__file__).resolve().parent.parent


MESSAGES_TEMPLATE = '''\
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.extra import Farewell


@dataclass({ping_flags})
class Ping:
    sender_id: int


@dataclass(frozen=True, slots=True)
class Pong:
    sender_id: int


GameMessage = Union[Ping, Pong, Farewell]
'''

EXTRA_MODULE = '''\
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Farewell:
    sender_id: int
'''

NODE_TEMPLATE = '''\
from __future__ import annotations


class Node:
    def _dispatch_message(self, src: int, message: object) -> None:
        if isinstance(message, Ping):
            pass
        elif isinstance(message, {dispatched_second}):
            pass
        elif isinstance(message, Farewell):
            pass
'''

pytestmark = pytest.mark.lint

WIRE_TEMPLATE = '''\
from __future__ import annotations

MESSAGE_TYPES: dict[str, type] = {{
    "Ping": Ping,
    "{registered_second}": object,
    "Farewell": Farewell,
}}
'''


def make_tree(
    root: Path,
    ping_flags: str = "frozen=True, slots=True",
    dispatched_second: str = "Pong",
    registered_second: str = "Pong",
) -> ProtocolSources:
    """A minimal src/repro tree with controllable conformance defects."""
    core = root / "src" / "repro" / "core"
    core.mkdir(parents=True, exist_ok=True)
    (core / "messages.py").write_text(
        MESSAGES_TEMPLATE.format(ping_flags=ping_flags)
    )
    (core / "extra.py").write_text(EXTRA_MODULE)
    (core / "node.py").write_text(
        NODE_TEMPLATE.format(dispatched_second=dispatched_second)
    )
    (core / "wire.py").write_text(
        WIRE_TEMPLATE.format(registered_second=registered_second)
    )
    return ProtocolSources(
        messages_path=core / "messages.py",
        node_path=core / "node.py",
        wire_path=core / "wire.py",
    )


def _rules(sources: ProtocolSources, root: Path) -> list[str]:
    return sorted(
        v.rule for v in run_protocol_rules(sources, src_root=root / "src")
    )


class TestSyntheticTrees:
    def test_conformant_tree_is_clean(self, tmp_path):
        sources = make_tree(tmp_path)
        assert _rules(sources, tmp_path) == []

    def test_missing_frozen_slots_is_p201(self, tmp_path):
        sources = make_tree(tmp_path, ping_flags="frozen=True")
        assert _rules(sources, tmp_path) == ["P201"]

    def test_plain_dataclass_is_p201(self, tmp_path):
        core = tmp_path / "src" / "repro" / "core"
        make_tree(tmp_path)
        text = (core / "messages.py").read_text()
        (core / "messages.py").write_text(
            text.replace("@dataclass(frozen=True, slots=True)\nclass Pong:",
                         "@dataclass\nclass Pong:")
        )
        sources = ProtocolSources(
            messages_path=core / "messages.py",
            node_path=core / "node.py",
            wire_path=core / "wire.py",
        )
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        assert [v.rule for v in violations] == ["P201"]
        assert "Pong" in violations[0].message

    def test_missing_dispatch_branch_is_p202(self, tmp_path):
        sources = make_tree(tmp_path, dispatched_second="Other")
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        assert [v.rule for v in violations] == ["P202"]
        assert "Pong" in violations[0].message
        assert "silently dropped" in violations[0].message

    def test_missing_codec_registration_is_p203(self, tmp_path):
        sources = make_tree(tmp_path, registered_second="Other")
        assert _rules(sources, tmp_path) == ["P203"]

    def test_union_member_defined_in_imported_module_is_resolved(self, tmp_path):
        # Farewell lives in extra.py (like RemovalProposal in membership.py);
        # breaking ITS dataclass flags must still be caught.
        sources = make_tree(tmp_path)
        extra = tmp_path / "src" / "repro" / "core" / "extra.py"
        extra.write_text(EXTRA_MODULE.replace("frozen=True, slots=True", "frozen=True"))
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        assert [v.rule for v in violations] == ["P201"]
        assert "Farewell" in violations[0].message
        assert violations[0].path.endswith("extra.py")

    def test_multiple_defects_all_reported(self, tmp_path):
        sources = make_tree(
            tmp_path,
            ping_flags="frozen=True",
            dispatched_second="Other",
            registered_second="Other",
        )
        assert _rules(sources, tmp_path) == ["P201", "P202", "P203"]


ACKABLE_SUFFIX = '''\


@dataclass(frozen=True, slots=True)
class AckMessage:
    sender_id: int


ACKABLE_TYPES = ({entries})
'''


def make_ackable_tree(
    root: Path, entries: str, ack_in_union: bool = True
) -> ProtocolSources:
    """The conformant tree plus an AckMessage and an ACKABLE_TYPES registry."""
    sources = make_tree(root)
    messages = root / "src" / "repro" / "core" / "messages.py"
    text = messages.read_text()
    if ack_in_union:
        text = text.replace(
            "GameMessage = Union[Ping, Pong, Farewell]",
            "GameMessage = Union[Ping, Pong, Farewell, AckMessage]",
        )
        text = text.replace(
            "    elif isinstance(message, Farewell):\n        return 4\n",
            "    elif isinstance(message, Farewell):\n        return 4\n"
            "    elif isinstance(message, AckMessage):\n        return 2\n",
        )
        node = root / "src" / "repro" / "core" / "node.py"
        node.write_text(
            node.read_text().replace(
                "        elif isinstance(message, Farewell):\n            pass\n",
                "        elif isinstance(message, Farewell):\n            pass\n"
                "        elif isinstance(message, AckMessage):\n            pass\n",
            )
        )
        wire = root / "src" / "repro" / "core" / "wire.py"
        wire.write_text(
            wire.read_text().replace(
                '    "Farewell": Farewell,\n',
                '    "Farewell": Farewell,\n    "AckMessage": object,\n',
            )
        )
    messages.write_text(text + ACKABLE_SUFFIX.format(entries=entries))
    return sources


class TestAckableRegistry:
    def test_consistent_registry_is_clean(self, tmp_path):
        sources = make_ackable_tree(tmp_path, entries="Ping, Pong")
        assert _rules(sources, tmp_path) == []

    def test_no_registry_skips_p205(self, tmp_path):
        # Fixture trees predating reliable delivery must stay clean.
        sources = make_tree(tmp_path)
        assert _rules(sources, tmp_path) == []

    def test_ack_inside_registry_is_p205(self, tmp_path):
        sources = make_ackable_tree(tmp_path, entries="Ping, AckMessage")
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        assert [v.rule for v in violations] == ["P205"]
        assert "loop" in violations[0].message

    def test_nonmember_in_registry_is_p205(self, tmp_path):
        sources = make_ackable_tree(tmp_path, entries="Ping, Bogus")
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        assert [v.rule for v in violations] == ["P205"]
        assert "Bogus" in violations[0].message

    def test_registry_without_ack_in_union_is_p205(self, tmp_path):
        sources = make_ackable_tree(
            tmp_path, entries="Ping, Pong", ack_in_union=False
        )
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        assert [v.rule for v in violations] == ["P205"]
        assert "union" in violations[0].message


TAGS_SUFFIX = '''\


MESSAGE_TAGS: dict[str, int] = {{
    "Ping": {ping_tag},
    "{tagged_second}": {second_tag},
    "Farewell": 3,
}}
'''


def make_tagged_tree(
    root: Path,
    ping_tag: str = "1",
    tagged_second: str = "Pong",
    second_tag: str = "2",
) -> ProtocolSources:
    """The conformant tree plus a MESSAGE_TAGS table with injectable defects."""
    sources = make_tree(root)
    wire = root / "src" / "repro" / "core" / "wire.py"
    wire.write_text(
        wire.read_text()
        + TAGS_SUFFIX.format(
            ping_tag=ping_tag, tagged_second=tagged_second, second_tag=second_tag
        )
    )
    return sources


class TestTagTable:
    def test_lockstep_table_is_clean(self, tmp_path):
        sources = make_tagged_tree(tmp_path)
        assert _rules(sources, tmp_path) == []

    def test_no_table_skips_p206(self, tmp_path):
        # Fixture trees predating the binary codec must stay clean.
        sources = make_tree(tmp_path)
        assert _rules(sources, tmp_path) == []

    def test_registered_type_without_tag_is_p206(self, tmp_path):
        sources = make_tagged_tree(tmp_path, tagged_second="Farewell")
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        # Pong untagged fires once; the duplicate Farewell key is legal AST.
        assert [v.rule for v in violations] == ["P206"]
        assert "Pong" in violations[0].message
        assert "cannot frame" in violations[0].message

    def test_tag_for_unregistered_name_is_p206(self, tmp_path):
        sources = make_tagged_tree(tmp_path, tagged_second="Bogus")
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        rules = [v.rule for v in violations]
        assert rules == ["P206", "P206"]  # Pong untagged + Bogus dead tag
        assert any("Bogus" in v.message for v in violations)

    def test_duplicate_tag_value_is_p206(self, tmp_path):
        sources = make_tagged_tree(tmp_path, second_tag="1")
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        assert [v.rule for v in violations] == ["P206"]
        assert "ambiguous" in violations[0].message

    def test_out_of_range_tag_is_p206(self, tmp_path):
        sources = make_tagged_tree(tmp_path, second_tag="256")
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        assert [v.rule for v in violations] == ["P206"]
        assert "single byte" in violations[0].message

    def test_non_integer_tag_is_p206(self, tmp_path):
        sources = make_tagged_tree(tmp_path, second_tag='"2"')
        violations = run_protocol_rules(sources, src_root=tmp_path / "src")
        assert [v.rule for v in violations] == ["P206"]
        assert "integer literal" in violations[0].message


class TestRealRepo:
    def test_repo_protocol_is_conformant(self):
        core = REPO_ROOT / "src" / "repro" / "core"
        sources = ProtocolSources(
            messages_path=core / "messages.py",
            node_path=core / "node.py",
            wire_path=core / "wire.py",
        )
        assert sources.exists()
        assert run_protocol_rules(sources, src_root=REPO_ROOT / "src") == []

    def test_repo_union_has_all_ten_messages(self):
        import ast

        from repro.lint.protocol import union_member_names

        tree = ast.parse((REPO_ROOT / "src/repro/core/messages.py").read_text())
        members = union_member_names(tree)
        assert "StateUpdate" in members
        assert "RemovalProposal" in members  # the imported-member case
        assert "AckMessage" in members  # the reliable-delivery receipt
        assert "MisbehaviorEvidence" in members  # the equivocation proof
        assert len(members) == 10


class TestRealRepoMutations:
    """Deleting AckMessage from any of its registration points is caught.

    Each test copies the real protocol triple, surgically removes one
    registration, and asserts the corresponding rule fires — the
    regression the P-family exists for: a message type that "works" in
    review but is silently unroutable, unencodable, or unsized.
    """

    def _mutated(self, tmp_path, filename: str, old: str, new: str):
        core = REPO_ROOT / "src" / "repro" / "core"
        work = tmp_path / "core"
        work.mkdir()
        for name in ("messages.py", "node.py", "wire.py"):
            text = (core / name).read_text()
            if name == filename:
                assert old in text, f"mutation anchor missing in {name}"
                text = text.replace(old, new)
            (work / name).write_text(text)
        sources = ProtocolSources(
            messages_path=work / "messages.py",
            node_path=work / "node.py",
            wire_path=work / "wire.py",
        )
        # src_root stays the real tree so imported members still resolve.
        return run_protocol_rules(sources, src_root=REPO_ROOT / "src")

    def test_removing_ack_from_union_is_p205(self, tmp_path):
        violations = self._mutated(
            tmp_path,
            "messages.py",
            "    RemovalProposal,\n    AckMessage,\n    MisbehaviorEvidence,\n]",
            "    RemovalProposal,\n    MisbehaviorEvidence,\n]",
        )
        assert [v.rule for v in violations] == ["P205"]
        assert "union" in violations[0].message

    def test_removing_ack_dispatch_branch_is_p202(self, tmp_path):
        violations = self._mutated(
            tmp_path,
            "node.py",
            "        elif isinstance(message, AckMessage):\n"
            "            self._on_ack(src, message)\n",
            "",
        )
        assert [v.rule for v in violations] == ["P202"]
        assert "AckMessage" in violations[0].message

    def test_removing_ack_codec_registration_is_p203(self, tmp_path):
        violations = self._mutated(
            tmp_path,
            "wire.py",
            '    "AckMessage": AckMessage,\n',
            "",
        )
        # P206 rides along: the type's wire tag is now dead surface.
        assert [v.rule for v in violations] == ["P203", "P206"]
        assert all("AckMessage" in v.message for v in violations)

    def test_removing_ack_wire_tag_is_p206(self, tmp_path):
        violations = self._mutated(
            tmp_path,
            "wire.py",
            '    "AckMessage": 9,\n',
            "",
        )
        assert [v.rule for v in violations] == ["P206"]
        assert "AckMessage" in violations[0].message

    def test_duplicating_a_wire_tag_is_p206(self, tmp_path):
        violations = self._mutated(
            tmp_path,
            "wire.py",
            '    "AckMessage": 9,\n',
            '    "AckMessage": 5,\n',
        )
        assert [v.rule for v in violations] == ["P206"]
        assert "ambiguous" in violations[0].message

    def test_adding_ack_to_ackable_types_is_p205(self, tmp_path):
        violations = self._mutated(
            tmp_path,
            "messages.py",
            "ACKABLE_TYPES: tuple[type, ...] = (\n    SubscriptionRequest,",
            "ACKABLE_TYPES: tuple[type, ...] = (\n    AckMessage,"
            "\n    SubscriptionRequest,",
        )
        assert [v.rule for v in violations] == ["P205"]
        assert "loop" in violations[0].message
