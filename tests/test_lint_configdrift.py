"""C601: paper-constant drift detection."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint.configdrift import (
    CONSTANT_ALIASES,
    extract_constants,
    run_configdrift_rules,
)

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_PATH = REPO_ROOT / "src" / "repro" / "core" / "config.py"


def drift_violations(files: dict[str, str], config_path: Path = CONFIG_PATH):
    trees = {rel: ast.parse(source) for rel, source in files.items()}
    sources = {rel: source.splitlines() for rel, source in files.items()}
    return run_configdrift_rules(trees, sources, config_path)


class TestExtractConstants:
    def test_real_config_exposes_paper_constants(self):
        constants = extract_constants(CONFIG_PATH)
        assert constants["FRAME_SECONDS"] == pytest.approx(0.05)
        assert constants["FRAMES_PER_SECOND"] == 20
        assert constants["PROXY_PERIOD_FRAMES"] == 40
        assert constants["SIGNATURE_BITS"] == 100
        # radians() calls are evaluated, not skipped
        assert constants["VISION_HALF_ANGLE"] == pytest.approx(1.0471975512)

    def test_every_alias_targets_a_real_constant(self):
        constants = extract_constants(CONFIG_PATH)
        missing = set(CONSTANT_ALIASES.values()) - set(constants)
        assert missing == set()


class TestC601Detection:
    def test_flags_function_default(self):
        violations = drift_violations(
            {
                "src/repro/game/physics.py": (
                    "def step(state, frame_seconds=0.05):\n"
                    "    return state\n"
                )
            }
        )
        assert [v.rule for v in violations] == ["C601"]
        assert "FRAME_SECONDS" in violations[0].message

    def test_flags_dataclass_field(self):
        violations = drift_violations(
            {
                "src/repro/core/protocol.py": (
                    "class Protocol:\n"
                    "    proxy_period_frames: int = 40\n"
                )
            }
        )
        assert [v.rule for v in violations] == ["C601"]
        assert "PROXY_PERIOD_FRAMES" in violations[0].message

    def test_flags_keyword_argument(self):
        violations = drift_violations(
            {
                "src/repro/net/session.py": (
                    "def make():\n"
                    "    return configure(signature_bits=100)\n"
                )
            }
        )
        assert [v.rule for v in violations] == ["C601"]

    def test_flags_the_crypto_package(self):
        # the signer's own default, as it stood while crypto/ was unswept
        violations = drift_violations(
            {
                "src/repro/crypto/signatures.py": (
                    "class HmacSigner:\n"
                    "    def __init__(self, signature_bits: int = 100) -> None:\n"
                    "        self.signature_bits = signature_bits\n"
                )
            }
        )
        assert [v.rule for v in violations] == ["C601"]
        assert "SIGNATURE_BITS" in violations[0].message

    def test_flags_the_membership_silence_alias(self):
        violations = drift_violations(
            {
                "src/repro/core/membership.py": (
                    "class MembershipView:\n"
                    "    silence_threshold_frames: int = 60\n"
                )
            }
        )
        assert [v.rule for v in violations] == ["C601"]
        assert "MEMBERSHIP_SILENCE_FRAMES" in violations[0].message

    def test_unmapped_name_is_not_flagged(self):
        # Same numeric value as FRAME_SECONDS, but the name has no alias
        # mapping: a documented precision limit, not drift.
        violations = drift_violations(
            {
                "src/repro/game/physics.py": (
                    "class Physics:\n"
                    "    fall_damage_per_speed: float = 0.05\n"
                )
            }
        )
        assert violations == []

    def test_deliberate_override_value_is_not_flagged(self):
        # frame_seconds=0.10 is an intentional departure from the paper
        # constant; C601 only fires on *duplicated* values.
        violations = drift_violations(
            {
                "src/repro/game/physics.py": (
                    "def step(state, frame_seconds=0.10):\n"
                    "    return state\n"
                )
            }
        )
        assert violations == []

    def test_config_module_itself_is_exempt(self):
        violations = drift_violations(
            {
                "src/repro/core/config.py": (
                    "def helper(frame_seconds=0.05):\n"
                    "    return frame_seconds\n"
                )
            }
        )
        assert violations == []

    def test_out_of_scope_package_is_ignored(self):
        violations = drift_violations(
            {
                "src/repro/obs/metrics.py": (
                    "def sample(frame_seconds=0.05):\n"
                    "    return frame_seconds\n"
                )
            }
        )
        assert violations == []

    def test_real_tree_has_zero_drift(self):
        files = {}
        sources = {}
        for file in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            rel = file.relative_to(REPO_ROOT).as_posix()
            text = file.read_text()
            files[rel] = ast.parse(text)
            sources[rel] = text.splitlines()
        assert run_configdrift_rules(files, sources, CONFIG_PATH) == []
