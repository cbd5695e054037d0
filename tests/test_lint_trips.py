"""Every rule trips on a plausible mutation of the real tree.

One copy of ``src/repro`` is linted twice: as is (it must be clean), then
with every mutation in ``PLANTS`` applied at once.  Each plant names the
rule it must trip and the line the finding is reported on; the plants
touch disjoint code, so none depends on another.  The rules whose
real-tree trip lives in their family's test file (R501, S701, S702, F402)
are tabulated beside these in docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.lint.engine import LintConfig, LintReport, run_lint

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Plant:
    """``old`` becomes ``new`` in ``path`` (below src/repro); ``rule`` must
    then fire on the one line of ``reported_in`` (default: ``path``) that
    contains ``reported``, naming ``mentions`` in its message."""

    rule: str
    path: str
    old: str
    new: str
    reported: str
    mentions: str = ""
    reported_in: str = ""


PLANTS = (
    # a bot picks goals with the module-state generator
    Plant(
        "D102",
        "game/bots.py",
        "from random import Random\n",
        "from random import Random, choice\n",
        reported="from random import Random, choice",
        mentions="choice",
    ),
    # "suspicious" simplified to "not the minimum rating"
    Plant(
        "D103",
        "core/verification.py",
        "return self.rating > MIN_RATING + 1e-9",
        "return self.rating != 1.0",
        reported="self.rating != 1.0",
    ),
    # a debugging dump of every published keyframe
    Plant(
        "D104",
        "core/publisher.py",
        "            self._last_published = snapshot\n",
        "            self._last_published = snapshot\n"
        '            open("keyframes.log", "a").write(repr(snapshot))\n',
        reported='open("keyframes.log", "a")',
        mentions="open",
    ),
    # a helper written without annotations
    Plant(
        "T301",
        "core/node.py",
        "def _defend_liveness(self, frame: int) -> None:",
        "def _defend_liveness(self, frame):",
        reported="def _defend_liveness(self, frame):",
        mentions="frame, return",
    ),
    # the subscription relay addressed from the payload, not the schedule
    Plant(
        "R502",
        "core/node.py",
        "self._transmit(request, (target_proxy,))",
        "self._transmit(request, (request.sender_id,))",
        reported="self._transmit(request, (request.sender_id,))",
        mentions="request.sender_id",
    ),
    # the 1 Hz heartbeat carries the exact snapshot
    Plant(
        "S703",
        "core/publisher.py",
        "snapshot=snapshot.position_only(),",
        "snapshot=snapshot,",
        reported="return PositionUpdate(",
        mentions="exact-state parameter 'snapshot'",
    ),
    # a paper constant re-stated as a default
    Plant(
        "C601",
        "game/deadreckoning.py",
        "frame_seconds: float = FRAME_SECONDS) -> Vec3:",
        "frame_seconds: float = 0.05) -> Vec3:",
        reported="frame_seconds: float = 0.05",
        mentions="FRAME_SECONDS",
    ),
    # the handoff branch lost from the dispatch ladder
    Plant(
        "M801",
        "core/node.py",
        "        elif isinstance(message, HandoffMessage):\n"
        "            self._on_handoff(message)\n",
        "",
        reported="MESSAGE_TYPES: dict[str, type] = {",
        mentions="`HandoffMessage`",
        reported_in="core/wire.py",
    ),
    # subscriptions judged periodic and dropped from the ack set
    Plant(
        "M802",
        "core/messages.py",
        "ACKABLE_TYPES: tuple[type, ...] = (\n    SubscriptionRequest,\n",
        "ACKABLE_TYPES: tuple[type, ...] = (\n",
        reported="def _on_subscription(",
        mentions="`SubscriptionRequest`",
        reported_in="core/node.py",
    ),
    # a reviewed commutativity claim deleted
    Plant(
        "M803",
        "core/node.py",
        "    # repro-mc: commutes[known] -- per-sender LWW merge, frame-stamp guarded\n"
        "    def _on_guidance(",
        "    def _on_guidance(",
        reported="def _on_guidance(",
        mentions="_on_guidance",
    ),
)


#: Rules that fire beside a plant by design: an exact heartbeat is F402's
#: case as well as S703's.
RIDERS = frozenset({"F402"})


@pytest.fixture(scope="module")
def linted(tmp_path_factory: pytest.TempPathFactory) -> tuple[LintReport, LintReport, Path]:
    """(report on the copy, report on the mutated copy, copy root)."""
    root = tmp_path_factory.mktemp("tree")
    package = root / "src" / "repro"
    shutil.copytree(
        REPO_ROOT / "src" / "repro", package, ignore=shutil.ignore_patterns("__pycache__")
    )
    clean = run_lint(LintConfig(root=root))
    for plant in PLANTS:
        target = package / plant.path
        text = target.read_text(encoding="utf-8")
        assert text.count(plant.old) == 1, f"{plant.rule}: anchor moved in {plant.path}"
        target.write_text(text.replace(plant.old, plant.new), encoding="utf-8")
    return clean, run_lint(LintConfig(root=root)), root


def test_unmutated_copy_is_clean(linted: tuple[LintReport, LintReport, Path]) -> None:
    clean, _, _ = linted
    assert clean.violations == []


def test_only_the_planted_rules_fire(linted: tuple[LintReport, LintReport, Path]) -> None:
    _, mutated, _ = linted
    assert {v.rule for v in mutated.violations} == {p.rule for p in PLANTS} | RIDERS


@pytest.mark.parametrize("plant", PLANTS, ids=lambda plant: plant.rule)
def test_rule_trips_at_its_planted_site(
    linted: tuple[LintReport, LintReport, Path], plant: Plant
) -> None:
    _, mutated, root = linted
    rel = "src/repro/" + (plant.reported_in or plant.path)
    lines = (root / rel).read_text(encoding="utf-8").splitlines()
    sites = [number for number, text in enumerate(lines, 1) if plant.reported in text]
    assert len(sites) == 1, f"{plant.reported!r} is not one line of {rel}"
    fired = [
        v.message
        for v in mutated.violations
        if (v.rule, v.path, v.line) == (plant.rule, rel, sites[0])
    ]
    assert any(plant.mentions in message for message in fired), (
        plant,
        sorted(v.render() for v in mutated.violations),
    )
