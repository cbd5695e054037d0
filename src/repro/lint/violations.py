"""Violation records and the rule catalog for ``repro lint``.

Every rule has a stable identifier (``D102`` …), a one-line summary, and
a longer rationale printed by ``repro lint --explain RULE``.  Rules come
in seven families:

* **D (determinism)** — the proxy schedule and frame-by-frame replay are
  only verifiable when every honest node computes the identical result;
  module-state randomness, float equality and file I/O silently break
  that.  (Host clocks are held out of ``src/repro`` by
  ``tests/test_one_clock.py``.)
* **T (typing)** — full annotations are the substrate the staged
  ``mypy --strict`` gate builds on.
* **F (information flow)** — a whole-program check (over the call graph)
  that reduced-resolution tiers never receive exact state.
* **R (routing)** — whole-program checks that all traffic leaves through
  the proxy layer and replies address the authenticated envelope source.
* **S (taint)** — interprocedural dataflow over the call graph: network
  payloads must pass signature verification before touching authoritative
  state, secrets must never flow to a send, and exact state must be
  reduced before entering a low-resolution tier.
* **C (config drift)** — paper constants are imported from
  ``core/config.py``, never re-stated as literals.
* **M (message footprints)** — whole-program extraction of each
  ``_on_*``/``_handle_*`` handler's footprint (consumed/emitted message
  types, authoritative-store writes): registered types must have a
  reachable handler, progress-bearing emissions must be ackable, and
  handler pairs racing on one store need a reviewed commutativity
  annotation; the table seeds the ``repro.mc`` model checker's
  partial-order reduction.

The message registry's own invariants (every ``GameMessage`` member
frozen and slotted, one codec entry and one tag each, the ack set inside
the union and without ``AckMessage``) are not source rules: they are
checked on the imported tables by
``tests/test_core_wire_roundtrip.py::TestRegistry``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DETERMINISTIC_PACKAGES", "Violation", "RuleInfo", "RULE_CATALOG", "family_of",
]

#: Sub-packages of repro whose code must replay bit-identically: the D
#: rules run here and nowhere else.
DETERMINISTIC_PACKAGES = (
    "core", "game", "crypto", "net", "cheats", "replay",
    "faults", "analysis", "baselines",
)

_D_SCOPE = "src/repro/{" + ",".join(DETERMINISTIC_PACKAGES) + "}"


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding: a rule tripped at a location."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True, slots=True)
class RuleInfo:
    """Catalog entry: summary for reports, rationale for ``--explain``."""

    rule: str
    summary: str
    rationale: str
    scope: str = "src/repro"
    examples: tuple[str, ...] = field(default_factory=tuple)


def family_of(rule: str) -> str:
    """``D102`` -> ``D`` (determinism), etc."""
    return rule[:1]


_CATALOG_ENTRIES = (
    RuleInfo(
        rule="D102",
        summary="module-state random (import random / random.<fn>())",
        rationale=(
            "The random module's top-level functions share one hidden global "
            "Mersenne state; any library or test that touches it reorders "
            "every later draw, so two nodes replaying the same trace diverge. "
            "Everything must flow through an explicitly seeded "
            "random.Random(seed) instance that is owned and injected "
            "(simulator.py seeds one per controller, transport.py one per "
            "network).  The rule therefore bans `import random` itself in "
            "deterministic packages: import the class, not the module "
            "(`from random import Random`), so no module-state call can "
            "creep in."
        ),
        scope=_D_SCOPE,
        examples=(
            "flags:  import random",
            "flags:  from random import choice",
            "ok:     from random import Random; rng = Random(seed)",
        ),
    ),
    RuleInfo(
        rule="D103",
        summary="float equality comparison (== / != with a float literal)",
        rationale=(
            "Two floating-point pipelines that differ only in summation order "
            "produce values that are equal-ish, not equal; an == against a "
            "non-zero float literal therefore makes control flow depend on "
            "rounding noise and breaks replay verification.  Compare against "
            "an epsilon (abs(a - b) <= eps) or use math.isclose.  Comparisons "
            "against literal 0.0 are exempt: exact-zero guards (division, "
            "zero-length vectors) are deterministic and idiomatic."
        ),
        scope=_D_SCOPE,
        examples=(
            "flags:  if distance == 1.5:",
            "ok:     if denom == 0.0:",
            "ok:     if abs(distance - 1.5) <= 1e-9:",
        ),
    ),
    RuleInfo(
        rule="D104",
        summary="file I/O outside the allowlisted persistence boundaries",
        rationale=(
            "Deterministic code that opens, reads, or writes files couples a "
            "replay to host filesystem state the tape cannot capture, and "
            "gives protocol logic a side channel the verifier never sees.  "
            "Persistence is confined to the explicit boundary modules named "
            "in repro.lint.determinism.FILE_IO_ALLOWLIST (the trace "
            "serializer and the tape format/CLI); adding a file there is a "
            "reviewed decision, and inline ignores are deliberately not "
            "honoured for new I/O sites."
        ),
        scope=_D_SCOPE,
        examples=(
            "flags:  with open(path) as handle:",
            "flags:  Path(out).write_text(report)",
            "ok:     rows = trace.to_json_rows()  # pure; caller persists",
        ),
    ),
    RuleInfo(
        rule="T301",
        summary="function missing parameter or return annotations",
        rationale=(
            "Full annotations are what lets mypy --strict verify the "
            "protocol statically (message payloads, codec field types, "
            "handler signatures).  Every function in src/repro must "
            "annotate every parameter (self/cls exempt) and its return "
            "type; __init__ returns None explicitly.  New modules should "
            "be added to the strict set in pyproject.toml as they land."
        ),
        scope="src/repro",
        examples=(
            "flags:  def upload(self, size): ...",
            "ok:     def upload(self, size: int) -> float: ...",
        ),
    ),
    RuleInfo(
        rule="F402",
        summary="reduced-resolution message built from unreduced exact state",
        rationale=(
            "VS and Others tiers get dead-reckoned guidance and 1 Hz "
            "position-only snapshots precisely so low-trust peers never "
            "hold exact position/velocity of players outside their IS.  A "
            "PositionUpdate.snapshot or GuidanceMessage.prediction built "
            "from a raw snapshot (instead of position_only()/"
            "predict_linear() or a helper that "
            "transitively applies one) leaks exact state to the very tier "
            "the reduction exists to protect against."
        ),
        scope="src/repro/{core,game} (whole-program, via callgraph.py)",
        examples=(
            "flags:  PositionUpdate(..., snapshot=snapshot)",
            "ok:     PositionUpdate(..., snapshot=snapshot.position_only())",
            "ok:     GuidanceMessage(..., prediction=self._guidance_prediction(f, s))",
        ),
    ),
    RuleInfo(
        rule="R501",
        summary="transport send that does not traverse the proxy layer",
        rationale=(
            "Section III-B: all of a player's traffic flows through its "
            "proxies — that is what hides network identities and gives "
            "verification its vantage point.  The rule flags any "
            "3-argument (src, dsts, frame) send-shaped call from "
            "core/node.py or game/* unless it is the sanctioned egress "
            "point (WatchmenNode._transmit_unfiltered) or the enclosing "
            "function has a call edge into core/proxy.py.  Everything "
            "else must go through WatchmenNode._transmit, which signs, "
            "applies the behaviour filter, and routes via the proxy "
            "schedule."
        ),
        scope="core/node.py + src/repro/game (whole-program)",
        examples=(
            "flags:  self._send_many(self.player_id, [peer], frame)  # in a handler",
            "ok:     self._transmit(message, destinations)",
        ),
    ),
    RuleInfo(
        rule="R502",
        summary="handler replies to a payload sender id, not the envelope",
        rationale=(
            "The dispatcher hands every handler the authenticated envelope "
            "source (the transport-stamped src whose signature was just "
            "verified) alongside the payload.  message.sender_id inside "
            "the payload is attacker-controlled — the paper defeats "
            "spoofing exactly because a forged sender_id fails signature "
            "verification at the *receiver*; replying to the payload field "
            "instead lets a spoofer redirect protocol traffic (subscription "
            "confirms, handoffs) to a victim.  Reply to the src parameter."
        ),
        scope="dispatch handlers (_on_*/_handle_*/_dispatch_message/on_message)",
        examples=(
            "flags:  self._transmit(reply, (message.sender_id,))",
            "ok:     self._transmit(reply, (src,))",
        ),
    ),
    RuleInfo(
        rule="S701",
        summary="unsanitized network payload reaches an authoritative sink",
        rationale=(
            "The paper's whole trust model is one invariant: nothing a peer "
            "sent may influence authoritative state (the known/roster "
            "stores, membership proposals, subscription sets, reputation) "
            "or be dispatched to a handler until its envelope has passed "
            "signature verification.  The rule seeds taint at the receive "
            "entry points (message-typed parameters of on_message/receive/"
            "deliver and wire-decode results) and propagates it through "
            "assignments, attribute chains and exact call edges to a "
            "fixpoint; a verification call (_verify_envelope, "
            "signer.verify, verify_route, a verifiable-PRNG draw, or any "
            "function carrying the `# repro-taint: sanitizer` marker) "
            "kills the taint for everything after it.  Unlike the "
            "syntactic F/R rules this survives refactors that move "
            "dispatch away from verification — the violation message "
            "carries the full interprocedural witness path.  By-name call "
            "edges neither propagate taint nor grant sanitizer credit "
            "(the R501 evidence convention)."
        ),
        scope="src/repro/{core,game} sinks (whole-program propagation)",
        examples=(
            "flags:  on_message -> _dispatch_message -> _on_state_update "
            "with the _verify_envelope call deleted",
            "ok:     accepted = self._verify_envelope(src, message) "
            "before dispatch",
        ),
    ),
    RuleInfo(
        rule="S702",
        summary="secret key material flows to a send/encode sink",
        rationale=(
            "HMAC keys and the registry master seed exist "
            "only to sign; any flow into a transmit primitive, the wire "
            "codec, or a message constructor field hands impersonation "
            "ability to every subscriber.  Taint enters at key_for() "
            "results and secret-attribute reads (.secret, .master_seed, "
            "._keys), survives derivation (bytes arithmetic, f-strings, "
            "container packing), and is cleared only by sign() — whose "
            "output is a MAC, deliberately one-way.  The crypto package "
            "itself is exempt: touching key material is its job; the rule "
            "polices everyone it lends keys to."
        ),
        scope="everything outside repro.crypto (whole-program propagation)",
        examples=(
            "flags:  self._transmit(DebugBlob(data=self.signer.registry"
            ".key_for(pid)), dst)",
            "ok:     envelope = self.signer.sign(self.player_id, message)",
        ),
    ),
    RuleInfo(
        rule="S703",
        summary="exact state reaches a reduced-resolution payload via dataflow",
        rationale=(
            "F402 checks the constructor expression syntactically; S703 "
            "generalizes it to dataflow: an AvatarSnapshot-typed value (or "
            "a read from the known store / a .snapshot field) is tracked "
            "through locals, tuples and exact call edges, and flagged if "
            "it lands in PositionUpdate.snapshot or "
            "GuidanceMessage.prediction unreduced.  Resolution reducers "
            "(position_only, predict_linear) "
            "clean their result, as does any component read "
            "(snapshot.position) — extracting a field IS the reduction.  "
            "This catches the helper-indirection case F402 cannot: "
            "build(s) -> PositionUpdate(snapshot=s) called with a raw "
            "snapshot."
        ),
        scope="src/repro/{core,game} sinks (whole-program propagation)",
        examples=(
            "flags:  def fan_out(s: AvatarSnapshot): return "
            "PositionUpdate(..., snapshot=s)",
            "ok:     PositionUpdate(..., snapshot=snapshot.position_only())",
        ),
    ),
    RuleInfo(
        rule="M801",
        summary="registered message type with no reachable handler",
        rationale=(
            "Every name in wire.MESSAGE_TYPES is decodable off the wire, so "
            "every name must also be consumed by an _on_*/_handle_* handler "
            "reachable (along exact call edges) from a receive entry point "
            "(on_message/receive/deliver/handle_datagram).  A type without "
            "one decodes fine and then falls through the dispatch chain's "
            "isinstance ladder — a silently dropped protocol message, which "
            "reads exactly like the packet-suppression cheats the protocol "
            "exists to catch.  Handlers are "
            "matched by their message-typed parameter annotation, so "
            "renaming a handler without updating the dispatch keeps "
            "flagging."
        ),
        scope="whole program (registry x handler footprints)",
        examples=(
            "flags:  MESSAGE_TYPES = {..., 'Ping': Ping}  # no _on_ping",
            "ok:     def _on_ping(self, msg: Ping) -> None: ...",
        ),
    ),
    RuleInfo(
        rule="M802",
        summary="progress-bearing message emitted outside ACKABLE_TYPES",
        rationale=(
            "A message type whose handler writes membership, subscriber-"
            "table or reputation state advances the protocol: losing one "
            "such datagram stalls an eviction round, orphans a "
            "subscription, or drops a kill judgement, and nothing "
            "re-sends it organically.  The ack/retry layer exists for "
            "exactly these low-rate critical messages, so any handler "
            "emitting such a type that is absent from ACKABLE_TYPES is "
            "relying on a lossless network.  Periodic state (known/"
            "recency/projectiles) is exempt — the next heartbeat repairs "
            "it, which is why StateUpdate stays fire-and-forget per the "
            "paper."
        ),
        scope="whole program (handler emissions x ACKABLE_TYPES)",
        examples=(
            "flags:  handler emits RemovalProposal; ACKABLE_TYPES omits it",
            "ok:     ACKABLE_TYPES = (..., RemovalProposal, ...)",
        ),
    ),
    RuleInfo(
        rule="M803",
        summary="two handlers race on one authoritative store, unannotated",
        rationale=(
            "When two handlers write the same authoritative store "
            "(membership, subscriber table, known, recency, reputation, "
            "projectiles), the node's state depends on their delivery "
            "order — precisely the nondeterminism a real (non-simulated) "
            "transport will introduce.  Each such pair must either be "
            "reviewed as order-insensitive (last-writer-wins keyed by "
            "frame stamp, idempotent mutation) and annotated with "
            "`# repro-mc: commutes[store]` on both def lines, or be "
            "covered by a repro.mc interleaving scenario.  The annotation "
            "also feeds the model checker's partial-order reduction: "
            "annotated pairs are not permuted, which is what keeps "
            "exhaustive exploration tractable."
        ),
        scope="whole program (handler write-sets)",
        examples=(
            "flags:  _on_a and _on_b both write self.known, no marker",
            "ok:     # repro-mc: commutes[known]  (on both def lines)",
        ),
    ),
    RuleInfo(
        rule="C601",
        summary="numeric literal duplicating a paper constant from core/config.py",
        rationale=(
            "core/config.py is the single source of the paper's magic "
            "numbers (50 ms frame, IS size 5, 40-frame proxy period, ±60° "
            "vision cone, 1 Hz tiers).  A re-stated literal keeps working "
            "until an experiment overrides the config and the copy "
            "silently diverges — the two halves of the protocol then run "
            "different papers.  The rule matches name AND value (a "
            "parameter default, dataclass field, or keyword argument whose "
            "name maps to a known constant and whose literal equals it), "
            "so same-value-different-meaning literals and deliberate "
            "overrides are not flagged.  The fix is the constant's name in "
            "place of the literal, imported from core/config.py."
        ),
        scope="src/repro/{core,game,net}",
        examples=(
            "flags:  def position_at(self, frame: int, frame_seconds: float = 0.05):",
            "ok:     def position_at(self, frame: int, frame_seconds: float = FRAME_SECONDS):",
            "ok:     fall_damage_per_speed: float = 0.05  # same value, different meaning",
        ),
    ),
)

RULE_CATALOG: dict[str, RuleInfo] = {info.rule: info for info in _CATALOG_ENTRIES}
