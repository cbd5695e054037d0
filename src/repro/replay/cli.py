"""``repro tape`` — record, verify, inspect, and diff match tapes.

Exit codes follow the repo convention the CI replay gate relies on:

* ``0`` — success / verification clean;
* ``1`` — gate failure: a verified tape diverged or its integrity check
  failed (corruption, fingerprint mismatch);
* ``2`` — usage problems: unknown preset, unreadable path, malformed or
  wrong-version tape.

File I/O note: this module writes tapes and divergence reports, so it is
allowlisted for the ``D104`` lint rule next to the format module.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.replay.player import diff_tapes, verify_tape
from repro.replay.recorder import record_session
from repro.replay.scenario import GOLDEN_PRESETS, TapeScenario
from repro.replay.tape import (
    Tape,
    TapeFormatError,
    TapeIntegrityError,
    read_tape,
    write_tape,
)

__all__ = ["add_tape_arguments", "cmd_tape"]

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2


def add_tape_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``tape`` subcommands on the given subparser."""
    sub = parser.add_subparsers(dest="tape_command", required=True)

    record = sub.add_parser(
        "record", help="simulate a scenario and record it to a .tape"
    )
    record.add_argument(
        "--preset",
        choices=sorted(GOLDEN_PRESETS),
        help="use a golden-corpus scenario instead of explicit knobs",
    )
    record.add_argument("--players", type=int, default=8)
    record.add_argument("--frames", type=int, default=220)
    record.add_argument("--seed", type=int, default=42)
    record.add_argument(
        "--map", choices=("longest-yard", "corridors"), default="longest-yard"
    )
    record.add_argument(
        "--latency", choices=("king", "peerwise", "lan"), default="king"
    )
    record.add_argument("--loss", type=float, default=0.01)
    record.add_argument("--servers", type=int, default=0)
    record.add_argument(
        "--chaos",
        metavar="SCENARIO",
        help="materialise this chaos scenario's fault schedule into the run",
    )
    record.add_argument("--out", required=True, help="output .tape path")

    verify = sub.add_parser(
        "verify",
        help="re-simulate each tape from its recorded inputs and diff the "
        "streams; exit 1 on the first divergence or integrity failure",
    )
    verify.add_argument("tapes", nargs="+", help=".tape files to verify")
    verify.add_argument(
        "--diff-out",
        metavar="PATH",
        help="write a JSON divergence report here when verification fails",
    )

    inspect = sub.add_parser(
        "inspect", help="print a tape's header, totals, and message mix"
    )
    inspect.add_argument("tapes", nargs="+", help=".tape files to inspect")

    diff = sub.add_parser(
        "diff", help="structural diff of two tapes (no simulation)"
    )
    diff.add_argument("old", help="expected .tape")
    diff.add_argument("new", help="actual .tape")


def _load(path: str) -> Tape:
    """Read a tape, translating failures to the CLI exit convention."""
    try:
        return read_tape(path)
    except TapeIntegrityError:
        raise
    except (TapeFormatError, OSError) as error:
        raise _Usage(str(error)) from error


class _Usage(Exception):
    """A problem with the invocation, not with the recorded run."""


def _scenario_from_args(args: argparse.Namespace) -> TapeScenario:
    if args.preset is not None:
        return GOLDEN_PRESETS[args.preset]
    scenario = TapeScenario(
        players=args.players,
        frames=args.frames,
        seed=args.seed,
        map_name=args.map,
        latency=args.latency,
        loss_rate=args.loss,
        servers=args.servers,
        chaos=args.chaos,
    )
    return scenario.with_chaos_flags()


def _cmd_record(args: argparse.Namespace) -> int:
    try:
        scenario = _scenario_from_args(args)
    except ValueError as error:
        raise _Usage(str(error)) from error
    tape = record_session(scenario)
    path = write_tape(tape, args.out)
    print(
        f"recorded {scenario.players} players x {tape.num_frames} frames: "
        f"{tape.num_messages} messages, {tape.payload_bytes} payload bytes, "
        f"sha256 {tape.sha256[:12]}… -> {path}"
    )
    return EXIT_OK


def _write_diff(path: str, report: dict[str, Any]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    reports: list[dict[str, Any]] = []
    failed = False
    for tape_path in args.tapes:
        try:
            tape = _load(tape_path)
        except TapeIntegrityError as error:
            print(f"FAIL {tape_path}: {error}", file=sys.stderr)
            reports.append({
                "tape": tape_path,
                "clean": False,
                "error": str(error),
                "frame": error.frame,
            })
            failed = True
            continue
        result = verify_tape(tape)
        reports.append({"tape": tape_path, **result.to_json()})
        if result.clean:
            print(
                f"ok   {tape_path}: {result.frames} frames, "
                f"{result.messages} messages re-simulated byte-identically"
            )
        else:
            failed = True
            detail = (
                result.divergence.describe()
                if result.divergence is not None
                else "fingerprint mismatch"
            )
            print(f"FAIL {tape_path}: {detail}", file=sys.stderr)
    if failed and args.diff_out:
        _write_diff(args.diff_out, {"results": reports})
        print(f"divergence report -> {args.diff_out}", file=sys.stderr)
    return EXIT_DIVERGED if failed else EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    for tape_path in args.tapes:
        tape = _load(tape_path)
        scenario = tape.scenario
        try:
            profile = scenario.make_config().profile
        except ValueError as error:
            raise _Usage(f"{tape_path}: {error}") from error
        print(f"{tape_path}:")
        print(f"  format        repro.tape.v1 (version {tape.version})")
        print(f"  config_hash   {tape.config_hash()}")
        print(f"  sha256        {tape.sha256}")
        print(
            f"  scenario      {scenario.players} players, {scenario.frames} "
            f"frames, seed {scenario.seed}, map {scenario.map_name}, "
            f"latency {scenario.latency}"
        )
        print(
            f"  chaos         {scenario.chaos or '-'} "
            f"(profile {profile})"
        )
        cheats = ", ".join(
            f"{spec.player_id}:{spec.kind}" for spec in scenario.cheats
        )
        print(f"  cheats        {cheats or '-'}")
        print(
            f"  stream        {tape.num_frames} frames, {tape.num_messages} "
            f"messages, {tape.payload_bytes} payload bytes"
        )
        for kind, count in tape.messages_by_type().items():
            print(f"    {kind:<24} {count}")
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    old = _load(args.old)
    new = _load(args.new)
    result = diff_tapes(old, new)
    if result.clean:
        print(f"tapes identical: {result.frames} frames, {result.messages} messages")
        return EXIT_OK
    detail = (
        result.divergence.describe()
        if result.divergence is not None
        else "fingerprint mismatch"
    )
    print(f"tapes differ: {detail}", file=sys.stderr)
    return EXIT_DIVERGED


def cmd_tape(args: argparse.Namespace) -> int:
    handlers = {
        "record": _cmd_record,
        "verify": _cmd_verify,
        "inspect": _cmd_inspect,
        "diff": _cmd_diff,
    }
    try:
        return handlers[args.tape_command](args)
    except _Usage as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except TapeIntegrityError as error:
        print(f"FAIL {error}", file=sys.stderr)
        return EXIT_DIVERGED
