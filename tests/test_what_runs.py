"""What runs is what ships: every public function, class and method under
``src/repro`` is named by something that is not a test — ``src/``, a bench, an
example, perfbench or a script; its own ``def`` line, ``__all__`` strings and
package re-exports do not count.  The scan is by name: it misses a dead method
whose name something live shares, but what it flags is certainly unreached."""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import pytest

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "benchmarks", "examples", "perfbench", "scripts")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Unreached on purpose: the reason says what keeps each.
KEPT = {
    "send": "perfbench/tracer.py BOUNDARIES resolves DatagramNetwork.send by name; a single send is send_many of one",
    "encoded_size": "perfbench/tracer.py BOUNDARIES resolves it by name (benchmark-labelled PR)",
    "pending_removals": "test_core_membership / test_property_extensions watch the quorum through it",
    "run_until": "the engine's bounded drain; test_net_events::TestRunUntil, test_property_core",
    "RateAnalysisProbe": "analysis/cheat_matrix.py cites its tests as Table 1's rate-analysis evidence",
}
#: Unreached and owed to the rule: each goes with the floor tests that check
#: only it, a few per PR (ROADMAP item 5).  May only shrink.
OWED = {
    "proxy_at_frame": "test_core_proxy::test_proxy_at_frame_consistent_with_epoch",
    "next_below": "test_crypto_prng::test_next_below_{in_range,bad_bound}",
    "at_frame": "test_game_avatar::test_at_frame",
    "nearest_respawn": "test_game_gamemap::test_nearest_respawn",
    "invalidate_spatial_index": "test_game_spatial::test_explicit_invalidation_after_in_place_replacement",
    "speed_of": "test_game_physics::test_speed_of{,_zero_frames}",
    "positions_of": "test_game_trace::test_positions_of_length",
    "shots_in_frame": "test_game_trace::test_shots_in_frame",
    "kills_in_frame": "test_game_trace::test_kills_in_frame",
    "quantized": "test_game_vector::test_quantized_{snaps_to_grid,rejects_bad_grid}; lint/flow.py row",
    "cross": "test_game_vector::test_cross_{is_orthogonal,right_handed}",
    "length_squared": "test_game_vector::test_length_squared",
    "rtt": "test_net_latency::test_rtt_is_double_one_way",
    "percentile_one_way": "test_net_latency::test_percentiles_ordered, TestPercentiles (2)",
    "reset": "test_obs_registry::test_reset_clears_everything",
}


def _public_names() -> set[str]:
    names = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else ()
            names |= {
                d.name for d in (node, *members)
                if isinstance(d, DEFS) and not d.name.startswith("_")
            }
    return names


def _named_outside_tests() -> set[str]:
    named = set()
    for path in (p for top in CALLERS for p in (REPO_ROOT / top).rglob("*.py")):
        text = path.read_text()
        own = set()  # (line, name) of each def; (line, None) across a re-export
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DEFS):
                own.add((node.lineno, node.name))
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                own |= {(n, None) for n in range(node.lineno, node.end_lineno + 1)}
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            line = token.start[0]
            if token.type == tokenize.NAME and not own & {(line, token.string), (line, None)}:
                named.add(token.string)
    return named


def test_every_public_name_is_reached_by_something_that_is_not_a_test():
    unreached = _public_names() - _named_outside_tests()
    assert unreached == set(KEPT) | set(OWED), "delete it, or delete its stale entry"
    assert len(KEPT) <= 12
