"""Closed-loop session waves: seeded construction and output checks.

A wave is :data:`WAVE_SIZE` sessions started together; the next wave
starts when every session of this one is terminal.  Each wave is built
through the public API from ``(workload, seed, wave index)`` alone:
account seeds, app parameters and liar positions all derive from that
triple, so no key, signature, transaction or session bytecode repeats
across waves.  Repeating one wave would let the process-global
recover LRU and keccak memo serve the second copy, a cache-hot path
that real fleets never take.

In-process waves run on a fresh simulator each (a durable
``RunStore`` holds exactly one engine run, and a fresh chain keeps the
work per wave fixed).  Wire waves share the one node the run started.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.apps.betting import make_betting_protocol, reference_reveal
from repro.apps.tender import make_tender_protocol, reference_select_winner
from repro.chain import EthereumSimulator, SimulatorConfig
from repro.chain.simulator import DEFAULT_FUNDING, ETHER
from repro.core import (
    BettingDriver,
    EngineMetrics,
    NettedSettlement,
    Participant,
    SessionEngine,
    SettlementBatcher,
    Stage,
    Strategy,
    TenderDriver,
    fleet_fingerprint,
    results_equal,
)
from repro.obs.names import METRIC_ENGINE_ROUNDS

#: Sessions per wave.
WAVE_SIZE = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which fleet, settled how, over what."""

    name: str
    app: str
    netted: bool
    #: Sessions per wave whose representative lies about the result.
    liars: int
    wire: bool
    #: Seconds one wave takes on the reference host (2-core Xeon VM,
    #: Python 3.11).  Only sets how many waves ``--seconds`` buys; the
    #: wave count is a pure function of ``--seconds``, never of the
    #: clock, so every run of a seed does identical work.
    wave_seconds: float

    def waves(self, seconds: float) -> int:
        """Timed waves for a ``--seconds`` budget (at least two)."""
        return max(2, round(seconds / self.wave_seconds))


WORKLOADS = {
    w.name: w for w in (
        Workload("fleet-direct", "betting", netted=False, liars=0,
                 wire=False, wave_seconds=2.2),
        Workload("fleet-netted-dispute", "tender", netted=True,
                 liars=5, wire=False, wave_seconds=3.4),
        Workload("fleet-wire", "betting", netted=False, liars=0,
                 wire=True, wave_seconds=7.8),
    )
}


@dataclass
class Session:
    """One session of a wave and what its run must end in."""

    driver: Any
    liar: bool
    #: The true result, from the app's Python reference.
    truth: Any
    finished_at: Optional[float] = None


@dataclass
class WaveRun:
    """A wave that just ran, with every live object it used."""

    index: int
    sessions: list
    started: float
    ended: float
    sim: Any = None
    #: The chain clock when the wave opened (its timelines start here).
    chain_time: Optional[int] = None
    metrics: Optional[EngineMetrics] = None
    engine: Optional[SessionEngine] = None
    error: Optional[BaseException] = None


@dataclass(frozen=True)
class WaveRecord:
    """What the benchmark keeps of a checked wave.

    Plain numbers only: a run keeps one record per wave, and holding
    the waves' chains and engines instead would grow the heap (and the
    garbage collector's work) wave by wave.
    """

    index: int
    wall: float
    #: Per session: did it end exactly as it must (:func:`record_wave`).
    verdicts: tuple
    #: Wave start to terminal step, for the sessions that ended well.
    latencies: tuple
    chain_time: Optional[int]
    fingerprint: str
    error: Optional[str]
    gas: int = 0
    blocks: int = 0
    txs: int = 0
    disputes: int = 0
    rounds: int = 0
    batches: int = 0
    #: ``KVStore.stats()`` of the wave's durable store, if it had one.
    kv_stats: dict = field(default_factory=dict)


def _tag(workload: Workload, seed: int, wave: int) -> str:
    return f"fleetbench/{workload.name}/{seed}/{wave}"


def _observed(steps, session: Session):
    """Wrap a driver's ``steps`` so its terminal step is timestamped."""
    def observed():
        yield from steps()
        session.finished_at = time.perf_counter()
    return observed


def build_wave(sim, workload: Workload, seed: int,
               wave: int) -> list[Session]:
    """Create the wave's sessions on ``sim`` (accounts funded there)."""
    tag = _tag(workload, seed, wave)
    rng = random.Random(tag)
    liars = set(rng.sample(range(WAVE_SIZE), workload.liars))
    sessions = []
    for index in range(WAVE_SIZE):
        liar = index in liars

        def member(role: str, strategy: Strategy) -> Participant:
            name = f"s{index}-{role}"
            account = sim.create_account(f"{tag}/{index}/{role}",
                                         name=name)
            return Participant(account=account, name=name,
                               strategy=strategy)

        first = Strategy.LIES_ABOUT_RESULT if liar else Strategy.HONEST
        if workload.app == "betting":
            bet_seed = rng.randrange(1, 2 ** 31)
            protocol = make_betting_protocol(
                sim, member("alice", first),
                member("bob", Strategy.HONEST), seed=bet_seed)
            truth = reference_reveal(bet_seed, protocol.betting_plan["rounds"])
            driver = BettingDriver(protocol, session_id=index)
        else:
            quote_a = 9 * ETHER - rng.randrange(10 ** 15)
            quote_b = 8 * ETHER - rng.randrange(10 ** 15)
            protocol = make_tender_protocol(
                sim, member("buyer", first),
                member("contractorA", Strategy.HONEST),
                member("contractorB", Strategy.HONEST),
                quote_a=quote_a, quote_b=quote_b)
            args = protocol.tender_plan["constructor_args"]
            truth = reference_select_winner(
                quote_a, quote_b, args["qa"], args["qb"], args["wq"])
            driver = TenderDriver(protocol, session_id=index)
        session = Session(driver=driver, liar=liar, truth=truth)
        driver.steps = _observed(driver.steps, session)
        sessions.append(session)
    return sessions


def fresh_simulator(chain_time: Optional[int] = None) -> EthereumSimulator:
    """The chain an in-process wave runs on (CLI engine defaults).

    ``chain_time`` moves its clock to that timestamp with one empty
    block, so a wave replayed from another chain gets the same
    timelines, and so the same calldata and gas.
    """
    sim = EthereumSimulator(
        config=SimulatorConfig(num_accounts=2, auto_mine=False))
    if chain_time is not None:
        sim.advance_time_to(chain_time)
        sim.mine()
    return sim


def run_wave(workload: Workload, seed: int, wave: int, sim=None,
             bus=None, store_factory=None,
             chain_time: Optional[int] = None) -> WaveRun:
    """Open and drive one wave; timing covers construction too.

    ``sim``/``bus`` are the wire mirrors (None builds a fresh
    in-process chain, at ``chain_time`` if given); ``store_factory``
    makes the wave's ``RunStore``.
    """
    started = time.perf_counter()
    result = WaveRun(index=wave, sessions=[], started=started,
                     ended=started)
    store = None
    try:
        if sim is None:
            sim = fresh_simulator(chain_time)
        result.sim = sim
        result.chain_time = sim.current_timestamp
        result.sessions = build_wave(sim, workload, seed, wave)
        if bus is not None:
            for session in result.sessions:
                session.driver.protocol.bus = bus
        options: dict = {}
        if workload.netted:
            batcher = SettlementBatcher(sim, account=sim.create_account(
                f"{_tag(workload, seed, wave)}/batcher", name="batcher"))
            options = {"settlement": NettedSettlement(batcher),
                       "batch_size": WAVE_SIZE}
        if store_factory is not None:
            store = options["store"] = store_factory(wave)
        result.engine = SessionEngine(
            sim, [s.driver for s in result.sessions], **options)
        result.metrics = result.engine.run()
    except Exception as exc:  # the wave failed; every session counts
        result.error = exc
    finally:
        result.ended = time.perf_counter()
        if store is not None:
            store.close()
    return result


def _credits(workload: Workload, session: Session) -> dict[str, int]:
    """Each participant's balance change, net of its own gas, that the
    true result dictates on this session's settlement path."""
    protocol = session.driver.protocol
    names = [p.name for p in protocol.participants]
    if workload.app == "betting":
        stake = protocol.betting_plan["stake"]
        winner = names[1] if session.truth else names[0]
        return {name: stake if name == winner else -stake
                for name in names}
    budget = protocol.tender_plan["budget"]
    credits = {name: 0 for name in names}
    credits[names[0]] = -budget
    if session.liar:
        # The dispute enforces the award on-chain; an optimistic
        # netted settlement leaves the award to the batch commitment.
        credits[names[session.truth]] = budget
    return credits


def _verdicts(workload: Workload, run: WaveRun) -> list[bool]:
    """Did each session end as it must?

    Honest sessions settle; liars are resolved through the dispute.
    In both cases the enforced outcome equals the app's Python
    reference and every participant's balance moved by exactly the
    payout that outcome dictates, net of the gas it paid, so the
    honest parties of a lying session end no worse off.  A wave whose
    dispute or batch count is off fails as a whole.
    """
    if run.error is not None or run.metrics is None:
        return [False] * WAVE_SIZE
    liars = sum(s.liar for s in run.sessions)
    batcher = run.engine.batcher
    batches = len(batcher.batches) if batcher is not None else 0
    if (run.metrics.disputes != liars
            or batches != (1 if workload.netted else 0)):
        return [False] * WAVE_SIZE
    verdicts = []
    for session in run.sessions:
        driver = session.driver
        protocol = driver.protocol
        stage = Stage.RESOLVED if session.liar else Stage.SETTLED
        via = ("dispute" if session.liar
               else "netted" if workload.netted else "finalize")
        outcome = protocol.outcome()
        ok = (driver.settled and not driver.aborted
              and session.finished_at is not None
              and protocol.stage is stage and outcome.via == via
              and results_equal(outcome.outcome, session.truth))
        if ok:
            gas: dict[str, int] = {}
            for entry in protocol.ledger.entries:
                gas[entry.actor] = gas.get(entry.actor, 0) + entry.gas
            credits = _credits(workload, session)
            for participant in protocol.participants:
                change = (run.sim.get_balance(participant.account)
                          - DEFAULT_FUNDING
                          + gas.get(participant.name, 0))
                if change != credits[participant.name]:
                    ok = False
        verdicts.append(ok)
    return verdicts


def record_wave(workload: Workload, run: WaveRun) -> WaveRecord:
    """Check a wave's outputs and keep its numbers (untimed)."""
    verdicts = _verdicts(workload, run)
    latencies = tuple(
        s.finished_at - run.started
        for s, ok in zip(run.sessions, verdicts) if ok)
    record = WaveRecord(
        index=run.index, wall=run.ended - run.started,
        verdicts=tuple(verdicts), latencies=latencies,
        chain_time=run.chain_time,
        fingerprint=fleet_fingerprint(s.driver for s in run.sessions),
        error=repr(run.error) if run.error is not None else None)
    if run.metrics is None:
        return record
    engine = run.engine
    return replace(
        record, gas=run.metrics.total_gas,
        blocks=run.metrics.blocks_mined, txs=run.metrics.transactions,
        disputes=run.metrics.disputes,
        rounds=int(engine.registry.get(METRIC_ENGINE_ROUNDS).total()),
        batches=(len(engine.batcher.batches)
                 if engine.batcher is not None else 0),
        kv_stats=engine.store.kv.stats() if engine.store else {})
