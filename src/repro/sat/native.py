"""The native CDCL kernel: ``_kernel.c`` built at first use, loaded by ctypes.

:func:`load` compiles ``_kernel.c`` once per source hash with the system
compiler (``$CC``, default ``cc``) and caches the shared object under
``$XDG_CACHE_HOME/repro/`` (default ``~/.cache/repro/``).  The build
writes a temporary file and installs it with :func:`os.replace`, so
parallel workers never load a half-written library.  When the build or
the load fails, :func:`load` logs one warning with the tail of the
compiler's output and returns None; every solver in the process then runs
the pure-Python kernel (:mod:`repro.sat.pykernel`).

:class:`NativeKernel` is the ctypes face of the C solver state.  It has
the same methods as :class:`repro.sat.pykernel.PythonKernel` and replays
its search exactly; like it, it checks every SAT model against the
clauses as they were added before returning it.  Clause streams cross
into C without a copy: :meth:`NativeKernel.add_flat` hands the address of
the caller's ``array('i')`` to the kernel.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import shlex
import subprocess
import tempfile
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.sat.solver import SolverStats

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: The search returns to Python every this many conflicts, so signal
#: handlers (the runner's SIGALRM job budget, Ctrl-C) run during long
#: solves.  Counted in conflicts, so the search itself is unchanged.
CHUNK_CONFLICTS = 256

_UNSAT, _SAT, _UNKNOWN, _PAUSED, _BAD_LITERAL = 0, 1, 2, 3, -1


def source_hash() -> str:
    """SHA-256 of ``_kernel.c``; names the cached library."""
    return hashlib.sha256(SOURCE.read_bytes()).hexdigest()


def cache_dir() -> Path:
    """Where built kernels live: ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def _build(target: Path) -> None:
    """Compile the kernel to ``target`` via a temporary file in its directory."""
    directory = target.parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{target.stem}-", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        cc = shlex.split(os.environ.get("CC") or "cc")
        proc = subprocess.run(
            [*cc, *CFLAGS, "-o", tmp, str(SOURCE)], capture_output=True, text=True
        )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-800:]
            raise OSError(f"{' '.join(cc)} exited with {proc.returncode}: {tail}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_SIGNATURES = {
    "k_new": (ctypes.c_void_p, [ctypes.c_double, ctypes.c_int64, ctypes.c_int64]),
    "k_free": (None, [ctypes.c_void_p]),
    "k_counters": (ctypes.c_void_p, [ctypes.c_void_p]),
    "k_n_vars": (ctypes.c_int32, [ctypes.c_void_p]),
    "k_new_var": (ctypes.c_int32, [ctypes.c_void_p]),
    "k_add_clause": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]),
    "k_add_clauses": (
        ctypes.c_int,
        [ctypes.c_void_p, ctypes.c_int32, ctypes.c_void_p, ctypes.c_int64],
    ),
    "k_check_model": (
        ctypes.c_int64,
        [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int64],
    ),
    "k_solve_begin": (
        ctypes.c_int,
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int,
         ctypes.c_int64, ctypes.c_int, ctypes.c_double],
    ),
    "k_solve_run": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_int64]),
    "k_model": (ctypes.c_void_p, [ctypes.c_void_p]),
    "k_core": (ctypes.c_void_p, [ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)]),
}


def _open(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


@functools.lru_cache(maxsize=None)
def load() -> ctypes.CDLL | None:
    """The compiled kernel library, or None when it cannot be built.

    Decided once per process: the first call builds (or finds in the
    cache) and loads the library; later calls return the same answer.
    """
    digest = source_hash()
    name = f"sat_kernel-{platform.machine() or 'any'}-{digest[:16]}.so"
    try:
        target = cache_dir() / name
        if not target.exists():
            _build(target)
        try:
            return _open(target)
        except OSError:
            _build(target)  # a stale or foreign file under our name
            return _open(target)
    except OSError as exc:
        log.warning("native SAT kernel unavailable, using the Python kernel: %s", exc)
        return None


def kernel_name() -> str:
    """``native:<source-hash12>`` or ``python``: which kernel this process runs."""
    return f"native:{source_hash()[:12]}" if load() is not None else "python"


class NativeKernel:
    """The C solver state behind the :class:`~repro.sat.pykernel.PythonKernel` API."""

    def __init__(
        self,
        stats: SolverStats,
        var_decay: float,
        restart_base: int,
        reduce_base: int,
    ):
        lib = load()
        if lib is None:
            raise RuntimeError("the native SAT kernel could not be built")
        self._lib = lib
        self._state = lib.k_new(1.0 / var_decay, restart_base, reduce_base)
        self._counters = (ctypes.c_int64 * 6).from_address(lib.k_counters(self._state))
        self.stats = stats

    def __del__(self):
        state, self._state = getattr(self, "_state", None), None
        if state:
            self._lib.k_free(state)

    def _sync(self) -> None:
        st = self.stats
        (st.decisions, st.propagations, st.conflicts, st.restarts, st.learned,
         st.deleted) = self._counters

    @property
    def n_vars(self) -> int:
        return self._lib.k_n_vars(self._state)

    def new_var(self) -> int:
        return self._lib.k_new_var(self._state)

    def add_clause(self, lits: Sequence[int]) -> bool:
        buf = array("i", lits)
        status = self._lib.k_add_clause(self._state, buf.buffer_info()[0], len(buf))
        self._sync()
        if status == _BAD_LITERAL:
            raise ValueError("literal 0 is not allowed")
        return bool(status)

    def add_flat(self, max_var: int, lits: array, start: int = 0) -> None:
        """Add the 0-terminated clauses ``lits[start:]`` of an ``array('i')``.

        The kernel reads the caller's buffer in place; variables up to
        ``max_var`` are created first.
        """
        if lits.typecode != "i":
            raise TypeError("a clause stream is an array('i')")
        n = len(lits) - start
        if n < 0 or (n and lits[-1] != 0):
            raise ValueError("a clause stream must end in 0")
        address = lits.buffer_info()[0] + start * lits.itemsize
        self._lib.k_add_clauses(self._state, max_var, address, n)
        self._sync()

    def check_model(self, model: Sequence[int]) -> int:
        """Index of the first added clause ``model`` falsifies, or -1."""
        data = bytes(model)
        return self._lib.k_check_model(self._state, data, len(data))

    def _model(self) -> bytes:
        """The model the last satisfiable search left in the kernel."""
        return ctypes.string_at(self._lib.k_model(self._state), self.n_vars + 1)

    def solve(
        self,
        assumptions: Sequence[int],
        max_conflicts: int | None,
        timeout_s: float | None,
    ) -> tuple[bool | None, list[int] | None, list[int] | None]:
        lib, state = self._lib, self._state
        buf = array("i", assumptions)
        try:
            status = lib.k_solve_begin(
                state, buf.buffer_info()[0], len(buf),
                max_conflicts is not None, max_conflicts or 0,
                timeout_s is not None, timeout_s or 0.0,
            )
            while status == _PAUSED:
                status = lib.k_solve_run(state, CHUNK_CONFLICTS)
        finally:
            self._sync()
        if status == _UNSAT:
            n = ctypes.c_int64()
            ptr = lib.k_core(state, ctypes.byref(n))
            core = (ctypes.c_int32 * n.value).from_address(ptr)[:] if n.value else []
            return False, None, core
        if status == _UNKNOWN:
            return None, None, None
        if status == _BAD_LITERAL:
            raise ValueError("literal 0 is not allowed")
        model = self._model()
        bad = self.check_model(model)
        if bad >= 0:
            from repro.sat.solver import SolverError

            raise SolverError(f"native kernel model falsifies added clause #{bad}")
        return True, list(model), None
