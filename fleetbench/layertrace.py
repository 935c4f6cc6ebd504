"""Outside-in layer trace: wrappers around public entry points.

The benchmark never edits the program to trace it.  Instead,
:class:`Tracer` replaces a fixed set of public entry points with
timing wrappers, in place:

* a module-level function is rebound in *every* loaded ``repro``
  module that holds it by name (``keccak256`` alone is imported by
  name into more than a dozen modules), so no caller keeps the
  untraced original;
* a method is replaced on its defining class.

Each wrapper records, per entry point, the call count, the inclusive
time and the *self* time: inclusive time minus the inclusive time of
wrapped callees.  Self times of all entry points therefore partition
the wrapped part of the wall time without double counting, and what
no wrapper covers is reported as an explicit ``other``.

Only calls made on the thread that installed the tracer are recorded.
The net client's event-loop thread runs no wrapped code on the
request path; its waiting shows up as the self time of
``ChannelClient.call`` on the calling thread.

Wrapping costs a Python call per traced call, so end-to-end numbers
come from untraced runs; ``trace.overhead_ratio`` reports the cost.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field

#: (entry name, import path of the owner, attribute, bytes argument
#: index or None).  The first two dotted parts of an entry name are
#: its component, the first part its layer (a ``src/repro`` package).
ENTRY_POINTS = (
    ("crypto.keccak.hash", "repro.crypto.keccak", "keccak256", 0),
    ("crypto.ecdsa.sign", "repro.crypto.ecdsa", "sign", None),
    ("crypto.ecdsa.recover", "repro.crypto.keys", "recover_address", None),
    ("crypto.ecdsa.recover_batch", "repro.crypto.keys",
     "recover_address_batch", None),
    # Key derivation and the nonce point of every signature.
    ("crypto.ecdsa.scalar_mult", "repro.crypto.secp256k1",
     "scalar_mult", None),
    ("evm.exec.execute", "repro.evm.vm:EVM", "execute", None),
    ("evm.jit.compile", "repro.evm.jit", "compile_program", None),
    ("chain.mine.block", "repro.chain.blockchain:Blockchain",
     "mine_block", None),
    ("chain.state_root.root", "repro.chain.state:WorldState",
     "state_root", None),
    ("chain.admit.one", "repro.chain.blockchain:Blockchain",
     "send_transaction", None),
    ("chain.admit.many", "repro.chain.blockchain:Blockchain",
     "send_transactions", None),
    ("offchain.bus.post", "repro.offchain.whisper:WhisperBus", "post", 2),
    ("offchain.signed_copy.sign", "repro.offchain.signing",
     "sign_bytecode", None),
    ("offchain.signed_copy.verify", "repro.offchain.signing:SignedCopy",
     "verify", None),
    ("core.engine.run", "repro.core.engine:SessionEngine", "run", None),
    ("core.split.split", "repro.core.splitter", "split_contract", None),
    ("lang.compile.source", "repro.lang.compiler", "compile_source", None),
    ("net.client.call", "repro.net.client:ChannelClient", "call", None),
    ("storage.commit.commit", "repro.storage.kv:KVStore", "commit", None),
)

LAYERS = ("lang", "evm", "crypto", "chain", "offchain", "core", "net",
          "storage")


@dataclass
class EntryStats:
    """Counters of one wrapped entry point within one phase."""

    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    nbytes: int = 0


@dataclass
class Phase:
    """Everything recorded while one named phase was active."""

    entries: dict = field(default_factory=dict)

    def entry(self, name: str) -> EntryStats:
        stats = self.entries.get(name)
        if stats is None:
            stats = self.entries[name] = EntryStats()
        return stats

    def calls(self, prefix: str) -> int:
        """Calls of every entry whose name starts with ``prefix``."""
        return sum(s.calls for n, s in self.entries.items()
                   if n.startswith(prefix))

    def self_s(self, prefix: str) -> float:
        """Self seconds of every entry whose name starts with ``prefix``."""
        return sum(s.self_s for n, s in self.entries.items()
                   if n.startswith(prefix))

    def nbytes(self, prefix: str) -> int:
        """Bytes seen by every entry whose name starts with ``prefix``."""
        return sum(s.nbytes for n, s in self.entries.items()
                   if n.startswith(prefix))

    def to_json(self) -> dict:
        return {name: [s.calls, s.self_s, s.incl_s, s.nbytes]
                for name, s in sorted(self.entries.items())}

    @classmethod
    def from_json(cls, table: dict) -> "Phase":
        phase = cls()
        for name, (calls, self_s, incl_s, nbytes) in table.items():
            phase.entries[name] = EntryStats(calls, self_s, incl_s, nbytes)
        return phase


def cache_counters() -> dict:
    """This process's keccak memo, recover memo and JIT counters."""
    from repro.crypto.keccak import keccak_cache_info
    from repro.crypto.keys import recover_cache_info
    from repro.evm import jit

    keccak = keccak_cache_info()
    recover = recover_cache_info()
    return {"keccak": [keccak.hits, keccak.misses],
            "recover": [recover.hits, recover.misses],
            "jit": jit.cache_info()}


class Tracer:
    """Installs and removes the entry-point wrappers of one process.

    Calls are attributed to :attr:`phase`; with ``phase`` None the
    wrappers pass straight through (used for untimed checks between
    waves, so they do not pollute a phase).
    """

    def __init__(self) -> None:
        self.phases: dict[str, Phase] = {}
        self.phase: Phase | None = None
        self._stack: list[float] = []
        self._thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    def use(self, name: str) -> Phase:
        """Attribute calls to the phase ``name`` (created on first use)."""
        phase = self.phases.get(name)
        if phase is None:
            phase = self.phases[name] = Phase()
        self.phase = phase
        return phase

    def stop_phase(self) -> None:
        """Stop attributing calls (wrappers stay installed)."""
        self.phase = None

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn, byte_arg):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        thread = self._thread
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None or get_ident() != thread:
                return fn(*args, **kwargs)
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats = phase.entry(name)
                stats.calls += 1
                stats.incl_s += elapsed
                stats.self_s += elapsed - children
                if byte_arg is not None:
                    stats.nbytes += len(args[byte_arg])

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every entry point; importing the owners as needed."""
        if self._undo:
            return
        import importlib
        import pkgutil

        import repro

        # Import every module first, so that none binds an entry point
        # by name after the scan below (and keeps it after uninstall).
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for name, owner_path, attr, byte_arg in ENTRY_POINTS:
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, byte_arg))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, byte_arg)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                        loaded_name == "repro"
                        or loaded_name.startswith("repro.")):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._undo.append((loaded, binding, original))
                        setattr(loaded, binding, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
