#!/usr/bin/env python
"""Mutation self-test for the model checker: the gate must be able to fail.

Deletes the rescind-on-liveness block from
``MembershipView.heard_from`` — the guard that clears pending removal
suspicion when a suspected player's live voice is heard again — and
requires the crash-eviction exploration to find a false-eviction
counterexample, minimize it, and write it as a ``repro.tape.v1``
artifact that:

1. replays byte-identically under the mutated tree
   (``repro tape verify`` exits 0 — the counterexample is real), and
2. diverges on the restored clean tree (``repro tape verify`` exits 1 —
   the tape pins the buggy behaviour, not some schedule accident).

The mutation is applied textually and restored with ``git checkout``;
the script refuses to run if the target file has local modifications.
Exit 0 when the whole loop holds, 1 on any deviation.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

TARGET = Path("src/repro/core/membership.py")

#: the rescind-on-liveness guard inside ``heard_from``
MUTATION_BLOCK = """\
        if (
            # nothing pending (every heartbeat of a clean run): nothing to rescind
            (self._proposals or self._own_proposals or self._scheduled_removals)
            and player_id not in self.removed
            and player_id not in self.convicted
        ):
            self._proposals.pop(player_id, None)
            self._own_proposals.discard(player_id)
            self._scheduled_removals.pop(player_id, None)
"""


def run(*argv: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run([sys.executable, *argv], env=env).returncode


def fail(message: str) -> int:
    print(f"mc mutation self-test: {message}", file=sys.stderr)
    return 1


def main() -> int:
    if not TARGET.is_file():
        return fail(f"run from the repository root ({TARGET} not found)")
    dirty = subprocess.run(
        ["git", "diff", "--quiet", "--", str(TARGET)]
    ).returncode
    if dirty:
        return fail(f"{TARGET} has local modifications; commit or stash first")

    source = TARGET.read_text(encoding="utf-8")
    if MUTATION_BLOCK not in source:
        return fail(
            "rescind block not found in heard_from — the guard moved; "
            "update MUTATION_BLOCK to keep this self-test honest"
        )

    ce_dir = Path(tempfile.mkdtemp(prefix="mc-mutation-"))
    tape = ce_dir / "mc-crash-eviction.tape"
    try:
        TARGET.write_text(
            source.replace(MUTATION_BLOCK, ""), encoding="utf-8"
        )
        print("mutation applied: rescind-on-liveness guard removed")

        code = run(
            "-m", "repro", "mc", "crash-eviction",
            "--counterexample-dir", str(ce_dir),
        )
        if code != 1:
            return fail(f"expected exit 1 under the mutation, got {code}")
        if not tape.is_file():
            return fail("no counterexample tape was written")

        code = run("-m", "repro", "tape", "verify", str(tape))
        if code != 0:
            return fail(
                f"counterexample does not replay under the mutation "
                f"(verify exit {code})"
            )
    finally:
        subprocess.run(["git", "checkout", "--", str(TARGET)], check=True)
        print("mutation reverted")

    code = run("-m", "repro", "tape", "verify", str(tape))
    if code != 1:
        return fail(
            f"expected the counterexample to diverge on the clean tree "
            f"(verify exit 1), got {code}"
        )
    print(
        "mc mutation self-test passed: counterexample found, minimized, "
        "replayed under the mutation, and rejected by the clean tree"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
