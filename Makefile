# Developer entry points for the Watchmen reproduction.
# `make precheck` is the one-command pre-push gate documented in README.md.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test fast lint precheck bench bench-pairs verdict-digest chaos chaos-byz \
	tapes replay-verify model-check

test:
	$(PYTHON) -m pytest -x -q

fast:
	$(PYTHON) -m pytest -x -q -m "not slow and not chaos and not perf"

lint:
	$(PYTHON) -m repro lint --json -

# The pre-push check: static analysis over the whole tree, the analyzer's
# own test suite, the byte-identical tape gate (seconds; the safety net of every
# refactor), then the chaos matrix at the CI job's parameters — the
# recovery-SLO gate (docs/ROBUSTNESS.md).
precheck:
	$(PYTHON) -m repro lint --json - \
		&& $(PYTHON) -m pytest -m lint -q \
		&& $(MAKE) replay-verify \
		&& $(PYTHON) -m repro chaos --players 12 --frames 240 --seed 7

# The gated reproduction rows (kbps, bits, bytes, encode/decode counts):
# functions of the seed alone, so running this twice leaves the tracked
# BENCH_core.json byte-identical.  Nothing here is timed — bench-pairs is.
bench:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src:benchmarks $(PYTHON) -m pytest \
		benchmarks/bench_scalability.py benchmarks/bench_crypto.py \
		benchmarks/bench_wire.py -q

# How a performance claim is measured (docs/PERFORMANCE.md): alternating
# perfbench driver pairs, BASE (a git ref) against the working tree, on one
# workload or a comma-separated list of them (base exported once).
#   make bench-pairs BASE=HEAD~1 WORKLOAD=paper48 PAIRS=10 FIRST_SEED=500
#   make bench-pairs BASE=HEAD~1 WORKLOAD=paper48,crowd96,hardened32_crash,taped24_cheats
BASE ?= HEAD
WORKLOAD ?= crowd96
PAIRS ?= 10
FIRST_SEED ?= 500
bench-pairs:
	$(PYTHON) scripts/bench_pairs.py --base $(BASE) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --first-seed $(FIRST_SEED)

# What a byte-identical change must leave as it was, per perfbench workload:
# verdict count and stream sha256, bans, reputations, LOS queries, decodes,
# MACs (scripts/verdict_digest.py).  Run it on both trees and diff.
#   make verdict-digest SEED=7
SEED ?= 7
verdict-digest:
	$(PYTHON) scripts/verdict_digest.py --seed $(SEED)

# Regenerate the golden tape corpus (docs/REPLAY.md).  Recording is
# deterministic: on an unchanged protocol this rewrites identical bytes,
# so a dirty `git status` after running it means the wire behaviour
# changed and the corpus refresh belongs in that same commit.
tapes:
	$(PYTHON) -m repro tape record --preset normal --out tests/tapes/normal.tape
	$(PYTHON) -m repro tape record --preset chaos --out tests/tapes/chaos.tape
	$(PYTHON) -m repro tape record --preset byzantine --out tests/tapes/byzantine.tape
	$(PYTHON) -m repro tape record --preset cheater --out tests/tapes/cheater.tape

# The CI replay gate, locally: re-simulate every committed tape and fail
# on the first divergent frame.
replay-verify:
	$(PYTHON) -m repro tape verify tests/tapes/*.tape

# The protocol race detector (docs/MODEL_CHECKING.md): exhaustive
# bounded exploration of the scenario matrix gated on its invariants and
# on the committed `mc` baseline row, then the mutation self-test that
# proves the gate can fail.
model-check:
	$(PYTHON) -m repro lint --footprints footprints.json \
		&& $(PYTHON) -m repro mc --footprints footprints.json \
			--require-complete --counterexample-dir artifacts/mc \
			--json mc-report.json \
		&& $(PYTHON) -m repro bench-diff benchmarks/baseline.json \
			mc-report.json \
		&& $(PYTHON) scripts/mc_mutation_selftest.py

# The fault-injection matrix with its SLO gates plus the bench-diff
# regression gate against the committed chaos baseline rows.
chaos:
	$(PYTHON) -m repro chaos --players 12 --frames 240 --seed 7 \
		--out chaos.json \
		&& $(PYTHON) -m repro bench-diff benchmarks/baseline.json chaos.json

# Just the adversarial tier (docs/ROBUSTNESS.md, "Byzantine fault
# tier"): equivocation, tampering, flood, selective forwarding, ack
# withholding — gated on detection latency, zero honest quarantines and
# the attacker's eviction.  `make chaos` runs `--matrix all` (default)
# and already includes these rows at seed 7; honest safety (no honest
# quarantine, no false eviction) has to hold on every seed, so this
# target sweeps three.
chaos-byz:
	for seed in 7 11 23; do \
		$(PYTHON) -m repro chaos --matrix byzantine \
			--players 12 --frames 240 --seed $$seed || exit 1; \
	done
