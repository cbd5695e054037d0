"""Paper constants live in core/config.py and are imported, never re-stated.

Satellite of the C601 drift rule: these tests pin the convention the rule
enforces — ``proxy.py`` and ``interest.py`` reference the
shared constants by name (an AST ``Name`` node in the default position, not
a duplicated numeric literal), and the constants agree with the
``WatchmenConfig`` defaults they parameterize.
"""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import pytest

from repro.core.config import (
    BYZANTINE_STARVATION_FRAMES,
    FRAME_SECONDS,
    FRAMES_PER_SECOND,
    HANDOFF_DEPTH,
    INTEREST_SET_SIZE,
    MAX_USEFUL_AGE_FRAMES,
    MEMBERSHIP_SILENCE_FRAMES,
    PROXY_PERIOD_FRAMES,
    PROXY_SILENCE_THRESHOLD_FRAMES,
    SIGNATURE_BITS,
    STATE_UPDATE_BITS,
    VISION_HALF_ANGLE,
    VISION_SLACK,
    WatchmenConfig,
)
from repro.net.transport import NetworkConfig

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _default_exprs(path: Path) -> dict[str, ast.expr]:
    """name -> default/field-value expression, for every function parameter
    default and class-level annotated field in the module."""
    tree = ast.parse(path.read_text())
    defaults: dict[str, ast.expr] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            for arg, default in zip(
                positional[len(positional) - len(args.defaults):], args.defaults
            ):
                defaults.setdefault(arg.arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    defaults.setdefault(arg.arg, default)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and item.value is not None
                    and isinstance(item.target, ast.Name)
                ):
                    defaults.setdefault(item.target.id, item.value)
    return defaults


def _imports_from_config(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    names: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "repro.core.config"
        ):
            names.update(alias.name for alias in node.names)
    return names


class TestConstantsAreImportedNotRestated:
    @pytest.mark.parametrize(
        ("rel", "param", "constant"),
        [
            ("core/proxy.py", "proxy_period_frames", "PROXY_PERIOD_FRAMES"),
            ("game/interest.py", "vision_half_angle", "VISION_HALF_ANGLE"),
            ("game/interest.py", "vision_slack", "VISION_SLACK"),
            ("game/interest.py", "interest_size", "INTEREST_SET_SIZE"),
        ],
    )
    def test_default_is_a_name_reference(self, rel, param, constant):
        path = SRC / rel
        default = _default_exprs(path).get(param)
        assert default is not None, f"{rel} no longer defines {param!r}"
        assert isinstance(default, ast.Name), (
            f"{rel}: default for {param!r} is {ast.dump(default)}; it must "
            f"reference {constant} from core/config.py, not a literal"
        )
        assert default.id == constant
        assert constant in _imports_from_config(path)


class TestConstantsMatchConfigDefaults:
    def test_watchmen_config_uses_the_constants(self):
        cfg = WatchmenConfig()
        assert cfg.proxy_period_frames == PROXY_PERIOD_FRAMES
        assert cfg.subscription_retention_frames == PROXY_PERIOD_FRAMES
        assert cfg.signature_bits == SIGNATURE_BITS
        assert cfg.proxy_silence_threshold_frames == PROXY_SILENCE_THRESHOLD_FRAMES
        assert cfg.membership_silence_frames == MEMBERSHIP_SILENCE_FRAMES

    def test_the_silence_thresholds_are_ordered(self):
        # failover, then the starvation scan, then eviction; and a crash
        # strands a publisher for less than the re-proxy bound
        assert (
            PROXY_SILENCE_THRESHOLD_FRAMES
            < BYZANTINE_STARVATION_FRAMES
            < MEMBERSHIP_SILENCE_FRAMES
        )
        assert PROXY_SILENCE_THRESHOLD_FRAMES < PROXY_PERIOD_FRAMES

    def test_interest_config_uses_the_constants(self):
        cfg = WatchmenConfig()
        assert cfg.interest.vision_half_angle == VISION_HALF_ANGLE
        assert cfg.interest.vision_slack == VISION_SLACK
        assert cfg.interest.interest_size == INTEREST_SET_SIZE

    def test_paper_values(self):
        # Section IV / Table II of the paper.
        assert FRAME_SECONDS == pytest.approx(0.05)
        assert FRAMES_PER_SECOND == 20
        assert PROXY_PERIOD_FRAMES == 40
        assert INTEREST_SET_SIZE == 5
        assert VISION_HALF_ANGLE == pytest.approx(math.radians(60.0))
        assert VISION_SLACK == pytest.approx(math.radians(15.0))
        assert SIGNATURE_BITS == 100
        assert STATE_UPDATE_BITS == 700
        assert HANDOFF_DEPTH == 2
        assert MAX_USEFUL_AGE_FRAMES == 3

    def test_frame_rate_consistency(self):
        assert FRAMES_PER_SECOND * FRAME_SECONDS == pytest.approx(1.0)


# -- knob-creep guard ---------------------------------------------------------

#: Session-identity settings — the shared schedule seed, key width.  A
#: deployment sets them; no experiment in the tree varies them.
DEPLOYMENT_SETTINGS = {"common_seed", "signature_bits"}

#: Where a non-test caller can live (tests and examples do not count).
CALLER_ROOTS = ("src", "benchmarks", "perfbench")


def _settings_passed(config_class: type, defining_module: Path) -> set[str]:
    """Names some caller outside ``defining_module`` hands to ``config_class``:
    keywords of a direct constructor call, plus every string key of a dict
    literal (the ``WatchmenConfig(**overrides)`` idiom of the ablation
    benches, ``TapeScenario.make_config`` and the mc scenarios)."""
    passed: set[str] = set()
    for root in CALLER_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path == defining_module:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    # WatchmenConfig(...) or config.WatchmenConfig(...)
                    callee = getattr(node.func, "attr", None) or getattr(
                        node.func, "id", None
                    )
                    if callee == config_class.__name__:
                        passed.update(k.arg for k in node.keywords if k.arg)
                elif isinstance(node, ast.Dict):
                    passed.update(
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    )
    return passed


class TestEveryKnobHasACaller:
    """A config field nobody outside tests sets is a constant, not an option."""

    @pytest.mark.parametrize(
        ("config_class", "rel"),
        [(WatchmenConfig, "core/config.py"), (NetworkConfig, "net/transport.py")],
    )
    def test_every_field_is_set_by_a_non_test_caller(self, config_class, rel):
        passed = _settings_passed(config_class, SRC / rel)
        unset = {
            field.name
            for field in dataclasses.fields(config_class)
            if field.name not in passed | DEPLOYMENT_SETTINGS
        }
        assert not unset, (
            f"{config_class.__name__} fields no caller under "
            f"{'/, '.join(CALLER_ROOTS)}/ ever sets: {sorted(unset)} — make "
            "them Final constants in core/config.py"
        )

    def test_field_budget(self):
        assert len(dataclasses.fields(WatchmenConfig)) <= 10
        assert len(dataclasses.fields(NetworkConfig)) <= 4


# -- mode-gate guard ------------------------------------------------------------

#: Every switch in ``WatchmenConfig`` — each ``bool`` field, and the
#: ``profile`` rung — is read where things are *built*:
#: ``WatchmenNode.__init__`` resolves the rung once and hands each mechanism
#: (``core/delivery.py``) and each role (the modules below) its
#: already-resolved values, and ``SubscriptionPlanner.__init__`` resolves
#: its own switch, so below its rung a collaborator is inert and no call
#: site forks on the mode.
MODE_GATE_READ_BUDGET = 0
MODE_GATES = {
    field.name
    for field in dataclasses.fields(WatchmenConfig)
    if field.type in (bool, "bool")
} | {"profile"}

#: The role collaborators behind ``WatchmenNode`` (docs/PROTOCOL.md §10).
ROLE_MODULES = ("liveness", "clients", "evidence", "publisher")

#: What only the node may do: touch the wire and feed the rating sink.
NODE_ONLY = {"_transmit", "_transmit_unfiltered", "_send_many", "_emit_rating",
             "_rate_violation"}

#: State the roles own; none of it may reappear on the node.
ROLE_STATE = {
    "_failover_depth", "_dead_suspects", "_active_proxy", "failover_events",
    "_clients", "_epoch_clients",
    "_evidence_emitted", "_starvation_rated", "quarantine_events",
    "equivocation_events", "suspicion_events",
    "_last_published", "_pending_kills", "_pending_projectiles", "own_future",
}


def _gate_reads(tree: ast.AST) -> list[ast.Attribute]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in MODE_GATES
        and isinstance(node.ctx, ast.Load)
    ]


def _core_tree(name: str) -> ast.Module:
    return ast.parse((SRC / "core" / f"{name}.py").read_text())


def _node_init() -> ast.FunctionDef:
    node_class = next(
        node
        for node in _core_tree("node").body
        if isinstance(node, ast.ClassDef) and node.name == "WatchmenNode"
    )
    return next(
        method
        for method in node_class.body
        if isinstance(method, ast.FunctionDef) and method.name == "__init__"
    )


def _self_attributes_assigned(function: ast.FunctionDef) -> list[str]:
    return [
        target.attr
        for node in ast.walk(function)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ]


class TestModeGatesAreResolvedAtConstruction:
    def test_gate_reads_outside_init_stay_within_budget(self):
        reads = [
            (module, function.name, read.lineno)
            for module in ("node", "delivery", "subscriptions", *ROLE_MODULES)
            for function in ast.walk(_core_tree(module))
            if isinstance(function, ast.FunctionDef) and function.name != "__init__"
            for read in _gate_reads(function)
        ]
        assert len(reads) <= MODE_GATE_READ_BUDGET, (
            f"{len(reads)} reads of a config switch outside a constructor: {reads} "
            "— build the mechanism inert in __init__ instead of forking at the "
            "call site"
        )

    def test_init_does_not_park_a_gate_on_an_attribute(self):
        # ``self._profile = config.profile`` branched on at the old call
        # site is the same fork with one more name
        parked = [
            ast.unparse(node)
            for node in ast.walk(_node_init())
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in MODE_GATES
        ]
        assert parked == []


class TestRolesOwnStateAndTheNodeActs:
    @pytest.mark.parametrize("module", ROLE_MODULES)
    def test_a_role_neither_holds_the_node_nor_sends_nor_rates(self, module):
        tree = _core_tree(module)
        imported = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        } | {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        assert "repro.core.node" not in imported
        named = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert not named & NODE_ONLY

    def test_the_node_assigns_no_role_state(self):
        assigned = _self_attributes_assigned(_node_init())
        assert not set(assigned) & ROLE_STATE
        assert len(assigned) <= 35, f"WatchmenNode.__init__ assigns {len(assigned)}"

    def test_no_module_outgrows_its_role(self):
        lines = {
            name: len((SRC / "core" / f"{name}.py").read_text().splitlines())
            for name in ("node", *ROLE_MODULES)
        }
        assert lines.pop("node") <= 1300
        assert all(count <= 350 for count in lines.values()), lines
