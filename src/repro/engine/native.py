"""Native compiled backend: the fused kernel, the coded-ROBDD builder,
and the ROMDD conversion and linearization.

The fused CSR schedule (:class:`repro.engine.batch.FusedSchedule`) is
already the exact input format a compiled kernel wants: one concatenated
child-position-major edge array, a layer bounds table, and contiguous
float64 probability matrices.  This module compiles the C implementation
shipped in-repo (``_native_kernel.c``) **on demand** with the system C
compiler and calls it through :mod:`ctypes`, consuming the schedule
arrays zero-copy.  The same library runs the compile pipeline after
ordering, each stage array-in, array-out:

* :func:`build_bdd` builds a coded ROBDD (the native route of
  :class:`repro.bdd.builder.CircuitBDDBuilder`);
* :func:`convert_bdd` converts a coded ROBDD's node arrays into ROMDD
  layers (the native route of :func:`repro.mdd.from_bdd.convert_bdd_to_mdd`);
* :func:`linearize_mdd` flattens an ROMDD's CSR node arrays into the
  fused schedule (the native route of
  :meth:`repro.engine.batch.LinearizedDiagram.from_mdd`).

Every array is checked here before its pointer reaches C.  No
Numba/cffi/compiled-wheel dependency — a plain ``cc`` is the only
requirement, and its absence is a supported state:

* no usable compiler (including ``CC=/nonexistent``), a failed compile,
  or a checksum-mismatched cache entry never raises out of a pass — the
  pass runs on the fused numpy kernel and the ``native.fallbacks``
  counter records it; the build, conversion and linearization run on
  their Python and numpy routes, which number every node and slot the
  same way;
* the compiled ``.so`` is cached **content-addressed** (SHA-256 of the C
  source + the compiler identity + the flags + the ABI tag) with a JSON
  marker recording the shared object's own checksum, the same
  verify-then-trust model the structure store uses.  Services point the
  cache under their store directory (``<store>/native``), so every
  process on the host warm-starts the library the way it warm-starts
  structures;
* a freshly loaded library must pass a bit-exact smoke test (forward,
  collapse, and backward on a handcrafted diagram, the build of a tiny
  circuit, and the conversion and linearization of a two-level diagram)
  before it is ever used for real passes.

The C kernel mirrors the fused kernel operation-for-operation (including
model-uniform level collapse and numpy's exact gradient-reduction
accumulation order), so ``kernel="native"`` results are bit-for-bit
identical to ``kernel="fused"`` — enforced by
``tests/property/test_fused_equivalence.py``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as _np

__all__ = [
    "available",
    "backward",
    "build_bdd",
    "cache_dir",
    "convert_bdd",
    "counters",
    "forward",
    "linearize_mdd",
    "load",
    "note_fallback",
    "publish_counters",
    "reset",
    "set_cache_dir",
]

#: The C source compiled into the backend (ships in-repo, read at build
#: time — its SHA-256 is half of the cache key).
SOURCE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_native_kernel.c"
)

#: Compile flags.  ``-ffp-contract=off`` is load-bearing: FMA contraction
#: would change rounding and break the bit-for-bit pin against the fused
#: kernel.  ``-ffast-math`` is banned for the same reason.
CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99", "-ffp-contract=off")

#: Bumped whenever the C call signatures change; part of the cache key
#: and checked against ``repro_native_abi()`` after every load.
ABI_VERSION = 3

#: Node kinds of an encoded circuit for :func:`build_bdd` (the ``NODE_*``
#: enum of the C source).
NODE_INPUT, NODE_CONST0, NODE_CONST1 = 0, 1, 2
NODE_GATE_KINDS = {
    "AND": 3, "OR": 4, "NOT": 5, "BUF": 6, "XOR": 7, "XNOR": 8, "NAND": 9, "NOR": 10,
}

#: Status codes of the builder, the conversion and the linearization (the
#: ``BUILD_*`` enum of the C source).
BUILD_OK, BUILD_NODE_LIMIT, BUILD_NO_MEMORY, BUILD_INVALID = 0, 1, 2, 3

_c_double_p = ctypes.POINTER(ctypes.c_double)
_c_int64_p = ctypes.POINTER(ctypes.c_int64)
_c_uint8_p = ctypes.POINTER(ctypes.c_uint8)
_c_double_pp = ctypes.POINTER(_c_double_p)
_c_int64_pp = ctypes.POINTER(_c_int64_p)

_LOCK = threading.RLock()

#: Process-wide backend state: the load is attempted at most once per
#: process (``reset()`` re-arms it, for tests) and the result — a bound
#: library or ``None`` — is cached.
_STATE = {"lib": None, "attempted": False, "cache_dir": None}

#: Monotone process-wide counters, published into metrics registries as
#: ``native.compiles`` / ``native.loads`` / ``native.fallbacks`` via
#: :func:`publish_counters`.
_COUNTERS = {"compiles": 0, "loads": 0, "fallbacks": 0}


class NativeError(RuntimeError):
    """Raised when a loaded native library misbehaves mid-pass."""


# --------------------------------------------------------------------- #
# Configuration, counters
# --------------------------------------------------------------------- #


def set_cache_dir(path: str) -> None:
    """Point the ``.so`` cache at ``path`` (typically ``<store>/native``).

    Takes effect on the next load attempt; a library that is already
    loaded stays loaded (the backend is process-wide).  The
    ``REPRO_NATIVE_CACHE`` environment variable takes precedence so a
    deployment can pin one host-wide cache for every process.
    """
    with _LOCK:
        _STATE["cache_dir"] = path


def cache_dir() -> str:
    """The directory compiled libraries are cached in."""
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return env
    with _LOCK:
        if _STATE["cache_dir"]:
            return _STATE["cache_dir"]
    euid = getattr(os, "geteuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), "repro-native-%d" % euid)


def counters() -> dict:
    """A snapshot of the monotone backend counters."""
    with _LOCK:
        return dict(_COUNTERS)


def note_fallback() -> None:
    """Record one pass that wanted the native kernel but degraded."""
    with _LOCK:
        _COUNTERS["fallbacks"] += 1


def publish_counters(registry, state: dict) -> None:
    """Fold counter deltas since ``state`` into ``registry``.

    ``state`` is the caller's private high-water dict (one per registry),
    so several services in one process never double-publish the shared
    process-wide totals.
    """
    for name, total in counters().items():
        delta = total - state.get(name, 0)
        if delta > 0:
            registry.inc("native." + name, delta)
            state[name] = total


def reset() -> None:
    """Forget the cached load outcome so the next pass retries (tests)."""
    with _LOCK:
        _STATE["lib"] = None
        _STATE["attempted"] = False


# --------------------------------------------------------------------- #
# Compile + load
# --------------------------------------------------------------------- #


def _find_compiler():
    """The C compiler to use, or ``None`` when the host has none.

    ``CC`` is authoritative when set: pointing it at a non-executable
    (``CC=/nonexistent``) deliberately simulates a compiler-less host.
    """
    cc = os.environ.get("CC")
    if cc is not None:
        cc = cc.strip()
        if not cc:
            return None
        resolved = shutil.which(cc)
        return resolved
    for candidate in ("cc", "gcc", "clang"):
        resolved = shutil.which(candidate)
        if resolved:
            return resolved
    return None


def _compiler_id(cc: str) -> str:
    """A stable identity string for the compiler (half of the cache key)."""
    try:
        out = subprocess.run(
            [cc, "--version"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=30,
            check=False,
        )
        first = out.stdout.decode("utf-8", "replace").splitlines()
        if out.returncode == 0 and first:
            return first[0].strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        st = os.stat(cc)
        return "%s:%d:%d" % (cc, st.st_size, int(st.st_mtime))
    except OSError:
        return cc


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cache_key(source: bytes, compiler_id: str) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(b"\0")
    digest.update(compiler_id.encode("utf-8", "replace"))
    digest.update(b"\0")
    digest.update(" ".join(CFLAGS).encode("ascii"))
    digest.update(b"\0abi=%d\0ptr=%d" % (ABI_VERSION, ctypes.sizeof(ctypes.c_void_p)))
    return digest.hexdigest()


class _Library:
    """A loaded, bound, smoke-tested native library."""

    __slots__ = (
        "cdll", "path", "forward", "backward", "bdd_build", "mdd_convert",
        "mdd_linearize", "result_export", "result_free",
    )

    def __init__(self, cdll, path):
        self.cdll = cdll
        self.path = path
        self.forward = cdll.repro_native_forward
        self.forward.restype = ctypes.c_int
        self.forward.argtypes = [
            _c_int64_p,  # kids
            _c_int64_p,  # bounds
            ctypes.c_int64,  # nlayers
            _c_double_pp,  # cols
            ctypes.c_int64,  # num_models
            ctypes.c_int64,  # root_slot
            _c_double_p,  # values
            _c_double_p,  # narrow_values
            _c_uint8_p,  # narrow
            _c_int64_p,  # collapsed_out
        ]
        self.backward = cdll.repro_native_backward
        self.backward.restype = ctypes.c_int
        self.backward.argtypes = [
            _c_int64_p,  # kids
            _c_int64_p,  # bounds
            ctypes.c_int64,  # nlayers
            _c_double_pp,  # cols
            ctypes.c_int64,  # num_models
            ctypes.c_int64,  # num_slots
            ctypes.c_int64,  # root_slot
            _c_double_p,  # values
            _c_double_p,  # narrow_values
            _c_uint8_p,  # narrow
            _c_double_p,  # adjoint
            _c_double_p,  # grads
            _c_double_p,  # scratch
            _c_int64_p,  # collapsed_out
        ]
        self.bdd_build = cdll.repro_bdd_build
        self.bdd_build.restype = ctypes.c_int
        self.bdd_build.argtypes = [
            _c_int64_p,  # kinds
            _c_int64_p,  # args
            _c_int64_p,  # starts
            _c_int64_p,  # fanins
            ctypes.c_int64,  # num_nodes
            ctypes.c_int64,  # output
            ctypes.c_int64,  # num_vars
            ctypes.c_int64,  # node_limit
            _c_int64_p,  # info
            ctypes.POINTER(ctypes.c_void_p),  # result_out
        ]
        self.mdd_convert = cdll.repro_mdd_convert
        self.mdd_convert.restype = ctypes.c_int
        self.mdd_convert.argtypes = [
            _c_int64_p,  # level
            _c_int64_p,  # low
            _c_int64_p,  # high
            ctypes.c_int64,  # n
            ctypes.c_int64,  # root
            _c_int64_p,  # level_layer
            _c_int64_p,  # level_bit
            ctypes.c_int64,  # num_levels
            _c_int64_p,  # cards
            _c_int64_p,  # widths
            _c_int64_p,  # codes
            ctypes.c_int64,  # num_layers
            _c_int64_p,  # info
            ctypes.POINTER(ctypes.c_void_p),  # result_out
        ]
        self.mdd_linearize = cdll.repro_mdd_linearize
        self.mdd_linearize.restype = ctypes.c_int
        self.mdd_linearize.argtypes = [
            _c_int64_p,  # level
            _c_int64_p,  # offsets
            _c_int64_p,  # children
            ctypes.c_int64,  # n
            ctypes.c_int64,  # root
            ctypes.c_int64,  # num_levels
            _c_int64_p,  # kids
            _c_int64_p,  # seg
            _c_int64_p,  # slot_levels
            _c_int64_p,  # bounds
            _c_int64_p,  # info
        ]
        self.result_export = cdll.repro_result_export
        self.result_export.restype = None
        self.result_export.argtypes = [ctypes.c_void_p, _c_int64_pp]
        self.result_free = cdll.repro_result_free
        self.result_free.restype = None
        self.result_free.argtypes = [ctypes.c_void_p]


def _bind(path: str):
    cdll = ctypes.CDLL(path)
    abi = cdll.repro_native_abi
    abi.restype = ctypes.c_int
    abi.argtypes = []
    if int(abi()) != ABI_VERSION:
        raise OSError("native library ABI mismatch")
    return _Library(cdll, path)


def _dp(array):
    return array.ctypes.data_as(_c_double_p)


def _ip(array):
    return array.ctypes.data_as(_c_int64_p)


def _smoke_test(lib) -> bool:
    """Bit-exact sanity check on a handcrafted one-layer diagram.

    Root node (slot 2) with the FALSE/TRUE terminals as children: the
    forward value is exactly ``columns[1]``, the gradient rows are
    exactly ``[0, 1]`` per model, and a model-uniform column matrix must
    take the collapse path.  Every expected float is exact in binary, so
    any deviation means a miscompiled or foreign library.
    """
    kids = _np.array([0, 1], dtype=_np.int64)
    bounds = _np.array([0, 2, 3, 0, 2, 2], dtype=_np.int64)
    col = _np.array([[0.25, 0.5], [0.75, 0.5]], dtype=_np.float64)
    cols = (_c_double_p * 1)(_dp(col))
    values = _np.empty((3, 2), dtype=_np.float64)
    narrow_values = _np.empty(3, dtype=_np.float64)
    narrow = _np.empty(3, dtype=_np.uint8)
    collapsed = ctypes.c_int64(-1)
    rc = lib.forward(
        _ip(kids), _ip(bounds), 1, cols, 2, 2,
        _dp(values), _dp(narrow_values), narrow.ctypes.data_as(_c_uint8_p),
        ctypes.byref(collapsed),
    )
    if rc != 0 or collapsed.value != 0 or narrow[2] != 0:
        return False
    if values[2, 0] != 0.75 or values[2, 1] != 0.5:
        return False

    adjoint = _np.empty((3, 2), dtype=_np.float64)
    grads = _np.empty(4, dtype=_np.float64)
    scratch = _np.empty(1, dtype=_np.float64)
    rc = lib.backward(
        _ip(kids), _ip(bounds), 1, cols, 2, 3, 2,
        _dp(values), _dp(narrow_values), narrow.ctypes.data_as(_c_uint8_p),
        _dp(adjoint), _dp(grads), _dp(scratch), ctypes.byref(collapsed),
    )
    if rc != 0 or grads.tolist() != [0.0, 0.0, 1.0, 1.0]:
        return False

    uniform = _np.array([[0.5, 0.5], [0.5, 0.5]], dtype=_np.float64)
    cols_u = (_c_double_p * 1)(_dp(uniform))
    rc = lib.forward(
        _ip(kids), _ip(bounds), 1, cols_u, 2, 2,
        _dp(values), _dp(narrow_values), narrow.ctypes.data_as(_c_uint8_p),
        ctypes.byref(collapsed),
    )
    if not (
        rc == 0
        and collapsed.value == 1
        and narrow[2] == 1
        and values[2, 0] == 0.5
        and values[2, 1] == 0.5
    ):
        return False

    # a XOR b over the order (a, b): the XOR step first complements b, so
    # six nodes are created (a, b, NOT b, the root and two terminals) and
    # three are reachable; a limit of five stops the build in its gate
    circuit = (
        _np.array([NODE_INPUT, NODE_INPUT, NODE_GATE_KINDS["XOR"]], dtype=_np.int64),
        _np.array([0, 1, 0], dtype=_np.int64),
        _np.array([0, 0, 0, 2], dtype=_np.int64),
        _np.array([0, 1], dtype=_np.int64),
    )
    status, info, arrays = _run_build(lib, *circuit, 2, 2, None)
    if status != BUILD_OK or (info["nodes"], info["root"], info["created"]) != (3, 4, 6):
        return False
    if [a.tolist() for a in arrays] != [[1, 1, 0], [0, 1, 2], [1, 0, 3]]:
        return False
    status, info, arrays = _run_build(lib, *circuit, 2, 2, 5)
    if not (status == BUILD_NODE_LIMIT and arrays is None and info["gates"] == 1):
        return False

    # the coded ROBDD  x[0] ? TRUE : (x[1] ? y : FALSE)  over x (values
    # 0 1 2, codes 00 01 10) above y (codes 0 1): y converts to node 2
    # with row (0, 1), then x to node 3 with row (0, 2, 1)
    def ints(*values):
        return _np.array(values, dtype=_np.int64)

    terminal = 1 << 30
    status, info, arrays = _run_convert(
        lib,
        ints(terminal, terminal, 2, 1, 0),
        ints(0, 1, 0, 0, 3),
        ints(0, 1, 1, 2, 1),
        4,
        ints(0, 0, 1),
        ints(0, 1, 0),
        [ints(0, 0, 0, 1, 1, 0).reshape(3, 2), ints(0, 1).reshape(2, 1)],
    )
    if status != BUILD_OK or info != [2, 5, 3]:
        return False
    if [a.tolist() for a in arrays] != [[1, 0], [1, 1], [0, 1, 0, 2, 1]]:
        return False

    # the same ROMDD with its two nodes numbered the other way round: the
    # walk reaches handle 3 (level 1) from the root 2, which puts it in
    # slot 2 and the root in slot 3
    status, info, arrays = _run_linearize(
        lib, ints(terminal, terminal, 0, 1), ints(0, 0, 0, 3, 5), ints(0, 3, 1, 0, 1), 2, 2
    )
    return (
        status == BUILD_OK
        and info == [3, 4, 2, 5]
        and [a.tolist() for a in arrays]
        == [[0, 1, 0, 2, 1], [0, 2, 5], [1, 0], [1, 2, 3, 0, 2, 2, 0, 3, 4, 2, 5, 3]]
    )


def _load_cached(so_path: str, marker_path: str):
    """Load a cached entry, verifying the marker checksum first.

    A mismatched or unreadable entry is a cache **miss** (the caller
    recompiles); it must never be trusted.
    """
    try:
        with open(marker_path, "r", encoding="utf-8") as handle:
            marker = json.load(handle)
        expected = marker.get("so_sha256")
        if not expected or _file_sha256(so_path) != expected:
            return None
        return _bind(so_path)
    except (OSError, ValueError):
        return None


def _compile(cc: str, source_path: str, so_path: str, marker: dict):
    """Compile the source and commit ``.so`` + marker atomically."""
    directory = os.path.dirname(so_path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(fd)
    try:
        result = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, source_path],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
            check=False,
        )
        if result.returncode != 0:
            return None
        marker = dict(marker, so_sha256=_file_sha256(tmp))
        os.replace(tmp, so_path)
        tmp = None
        fd, mtmp = tempfile.mkstemp(dir=directory, suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(marker, handle, sort_keys=True)
            os.replace(mtmp, marker_path_for(so_path))
        except OSError:
            try:
                os.unlink(mtmp)
            except OSError:
                pass
            return None
        return _bind(so_path)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def marker_path_for(so_path: str) -> str:
    return so_path[: -len(".so")] + ".json"


def load():
    """Return the bound native library, or ``None`` when unavailable.

    The full compile-or-load decision runs at most once per process;
    every later call is a dict read.  All failure modes — no source, no
    compiler, compile error, checksum mismatch with no way to recompile,
    ABI mismatch, smoke-test failure — yield ``None``, which every pass
    translates into a clean fused fallback.
    """
    with _LOCK:
        if _STATE["attempted"]:
            return _STATE["lib"]
        _STATE["attempted"] = True
        _STATE["lib"] = _load_locked()
        if _STATE["lib"] is not None:
            _COUNTERS["loads"] += 1
        return _STATE["lib"]


def _load_locked():
    try:
        with open(SOURCE_PATH, "rb") as handle:
            source = handle.read()
    except OSError:
        return None
    cc = _find_compiler()
    compiler_id = _compiler_id(cc) if cc else "no-compiler"
    key = _cache_key(source, compiler_id)
    directory = cache_dir()
    so_path = os.path.join(directory, key + ".so")
    marker_path = marker_path_for(so_path)

    lib = None
    if os.path.exists(so_path):
        lib = _load_cached(so_path, marker_path)
    if lib is None and cc is not None:
        marker = {
            "abi": ABI_VERSION,
            "cflags": list(CFLAGS),
            "compiler": compiler_id,
            "source_sha256": hashlib.sha256(source).hexdigest(),
        }
        lib = _compile(cc, SOURCE_PATH, so_path, marker)
        if lib is not None:
            _COUNTERS["compiles"] += 1
    if lib is not None and not _smoke_test(lib):
        lib = None
    return lib


def available() -> bool:
    """Whether native passes can run in this process (loads on demand)."""
    return load() is not None


# --------------------------------------------------------------------- #
# Coded-ROBDD build
# --------------------------------------------------------------------- #

_BUILD_INFO_FIELDS = (
    "nodes", "root", "created", "gates", "hits", "misses", "insertions", "evictions",
)

#: The most arrays one C result holds (``RESULT_ARRAYS`` of the C source).
_RESULT_ARRAYS = 4


def _run(lib, function, args, info_size, lengths):
    """One C call that hands back a result, on checked arrays.

    Returns ``(status, info, arrays)``: ``info`` is the list of the
    call's ``info_size`` counters and ``arrays`` the result's int64
    arrays, of the lengths ``lengths(info)`` gives, when the call
    succeeded (``None`` otherwise).  The C result is freed on every path.
    """
    info = _np.zeros(info_size, dtype=_np.int64)
    result = ctypes.c_void_p()
    status = function(*args, _ip(info), ctypes.byref(result))
    info = info.tolist()
    arrays = None
    try:
        if status == BUILD_OK:
            arrays = tuple(_np.empty(n, dtype=_np.int64) for n in lengths(info))
            lib.result_export(result, (_c_int64_p * _RESULT_ARRAYS)(*map(_ip, arrays)))
    finally:
        lib.result_free(result)
    return status, info, arrays


def _run_build(lib, kinds, args, starts, fanins, output, num_vars, node_limit):
    """One ``repro_bdd_build`` call on checked arrays.

    Returns ``(status, info, arrays)``; ``arrays`` is the exported
    ``(level, low, high)`` triple on success and ``None`` otherwise.
    """
    status, info, arrays = _run(
        lib,
        lib.bdd_build,
        (
            _ip(kinds),
            _ip(args),
            _ip(starts),
            _ip(fanins),
            len(kinds),
            output,
            num_vars,
            -1 if node_limit is None else node_limit,
        ),
        len(_BUILD_INFO_FIELDS),
        lambda info: (info[0],) * 3,
    )
    return status, dict(zip(_BUILD_INFO_FIELDS, info)), arrays


def _check_int_arrays(message, *arrays) -> None:
    for array in arrays:
        if not (
            isinstance(array, _np.ndarray)
            and array.dtype == _np.int64
            and array.ndim == 1
            and array.flags["C_CONTIGUOUS"]
        ):
            raise ValueError(message)


def _check_circuit(kinds, args, starts, fanins, output, num_vars) -> None:
    """Validate an encoded circuit before any pointer reaches C."""
    _check_int_arrays(
        "encoded circuit arrays must be contiguous 1-D int64", kinds, args, starts, fanins
    )
    n = len(kinds)
    if n < 1 or len(args) != n or len(starts) != n + 1:
        raise ValueError("encoded circuit arrays disagree in length")
    counts = _np.diff(starts)
    if int(starts[0]) != 0 or int(starts[-1]) != len(fanins) or (counts < 0).any():
        raise ValueError("fanin offsets do not cover the fanin array")
    readers = _np.repeat(_np.arange(n, dtype=_np.int64), counts)
    if ((fanins < 0) | (fanins >= readers)).any():
        raise ValueError("a fanin does not point to an earlier node")
    if ((kinds < NODE_INPUT) | (kinds > max(NODE_GATE_KINDS.values()))).any():
        raise ValueError("unknown node kind")
    levels = args[kinds == NODE_INPUT]
    if not 1 <= num_vars < 2**31 or ((levels < 0) | (levels >= num_vars)).any():
        raise ValueError("input level out of range")
    if not 0 <= output < n:
        raise ValueError("output position out of range")


def build_bdd(kinds, args, starts, fanins, output, num_vars, node_limit=None):
    """Build the ROBDD of an encoded circuit natively.

    The circuit is given in topological order as four int64 arrays:
    ``kinds`` (``NODE_INPUT``, ``NODE_CONST0``/``NODE_CONST1`` or a
    :data:`NODE_GATE_KINDS` value), ``args`` (an input's variable level),
    ``starts`` (CSR offsets into ``fanins``) and ``fanins`` (earlier node
    positions), plus the ``output`` position and the number of variable
    levels.  ``node_limit`` is checked as the gate loop checks it.

    Returns ``None`` when the library is unavailable, else ``(status,
    info, arrays)``: ``status`` is :data:`BUILD_OK` or
    :data:`BUILD_NODE_LIMIT`; ``info`` holds the ``nodes`` count and
    ``root`` handle of the reachable diagram, the ``created`` node count
    (terminals included), ``gates`` processed and the computed-table
    ``hits``/``misses``/``insertions``/``evictions``; ``arrays`` is
    ``(level, low, high)`` for handles ``2 .. nodes + 1`` (children before
    parents) when the build succeeded.  Raises :class:`MemoryError` when
    the C side ran out of memory.
    """
    lib = load()
    if lib is None:
        return None
    _check_circuit(kinds, args, starts, fanins, output, num_vars)
    status, info, arrays = _run_build(
        lib, kinds, args, starts, fanins, output, num_vars, node_limit
    )
    if status == BUILD_NO_MEMORY:
        raise MemoryError("native ROBDD build ran out of memory")
    if status not in (BUILD_OK, BUILD_NODE_LIMIT):
        raise NativeError("native ROBDD build rejected its input (status %d)" % status)
    return status, info, arrays


# --------------------------------------------------------------------- #
# ROMDD conversion and linearization
# --------------------------------------------------------------------- #


def _library():
    lib = load()
    if lib is None:
        raise NativeError("native backend is not loaded")
    return lib


def _raise_for(status, what) -> None:
    if status == BUILD_NO_MEMORY:
        raise MemoryError("native %s ran out of memory" % what)
    if status != BUILD_OK:
        raise ValueError("native %s rejected a malformed diagram (status %d)" % (what, status))


def _check_conversion(level, low, high, root, level_layers, level_bits, codes) -> None:
    """Validate a conversion's inputs before any pointer reaches C."""
    _check_int_arrays("ROBDD node arrays must be contiguous 1-D int64", level, low, high)
    n = len(level)
    if not 3 <= n < 2**31 or len(low) != n or len(high) != n:
        raise ValueError("ROBDD node arrays disagree in length")
    if not 2 <= root < n:
        raise ValueError("root handle out of range")
    if min(int(low.min()), int(high.min())) < 0 or max(int(low.max()), int(high.max())) >= n:
        raise ValueError("a child handle is out of range")
    _check_int_arrays("level tables must be contiguous 1-D int64", level_layers, level_bits)
    if not 1 <= len(level_layers) == len(level_bits) < 2**31 or not codes:
        raise ValueError("level tables disagree in length")
    for table in codes:
        if not (
            isinstance(table, _np.ndarray)
            and table.dtype == _np.int64
            and table.ndim == 2
            and min(table.shape) >= 1
        ):
            raise ValueError("codeword tables must be cardinality x width int64 arrays")
        if ((table != 0) & (table != 1)).any():
            raise ValueError("codeword bits must be 0 or 1")
    if (
        int(level_layers.min()) < 0
        or int(level_layers.max()) >= len(codes)
        or (_np.diff(level_layers) < 0).any()
    ):
        raise ValueError("level layers must be nondecreasing layer indices")
    widths = _np.array([table.shape[1] for table in codes], dtype=_np.int64)
    if ((level_bits < 0) | (level_bits >= widths[level_layers])).any():
        raise ValueError("a level's bit position lies outside its codeword")


def _run_convert(lib, level, low, high, root, level_layers, level_bits, codes):
    """One ``repro_mdd_convert`` call on checked arrays.

    Returns ``(status, info, arrays)``; ``arrays`` is the exported
    ``(layer ids, row counts, children)`` triple on success.
    """
    return _run(
        lib,
        lib.mdd_convert,
        (
            _ip(level),
            _ip(low),
            _ip(high),
            len(level),
            root,
            _ip(level_layers),
            _ip(level_bits),
            len(level_layers),
            _ip(_np.array([len(table) for table in codes], dtype=_np.int64)),
            _ip(_np.array([table.shape[1] for table in codes], dtype=_np.int64)),
            _ip(_np.concatenate([table.ravel() for table in codes])),
            len(codes),
        ),
        3,
        lambda info: (info[0], info[0], info[1]),
    )


def convert_bdd(level, low, high, root, level_layers, level_bits, codes):
    """Convert a coded ROBDD into ROMDD layers natively.

    ``level``/``low``/``high`` are the ROBDD's int64 node arrays (handles
    ``0``/``1`` the terminals; levels outside the table mark terminals and
    free slots) and ``root`` a non-terminal handle.  Level ``i`` of the
    ROBDD encodes bit ``level_bits[i]`` of layer ``level_layers[i]``, and
    ``codes[layer]`` is the layer's ``cardinality x width`` codeword bit
    table (most significant bit first).

    Returns ``(layers, root)`` exactly as the numpy route of
    :func:`repro.mdd.from_bdd.convert_bdd_to_mdd` makes them: ``(layer,
    rows)`` pairs, deepest layer first, for
    :meth:`repro.mdd.manager.MDDManager.load_layers`, and the root's
    image.  Raises :class:`NativeError` when the library is not loaded,
    :class:`ValueError` on malformed arrays and :class:`MemoryError`
    when the C side ran out of memory.
    """
    lib = _library()
    _check_conversion(level, low, high, root, level_layers, level_bits, codes)
    status, info, arrays = _run_convert(
        lib, level, low, high, root, level_layers, level_bits, codes
    )
    _raise_for(status, "ROMDD conversion")
    layer_ids, counts, children = arrays
    layers = []
    offset = 0
    for layer, count in zip(layer_ids.tolist(), counts.tolist()):
        card = len(codes[layer])
        layers.append((layer, children[offset : offset + count * card].reshape(count, card)))
        offset += count * card
    return layers, info[2]


def _check_linearization(level, offsets, children, root, num_levels) -> None:
    """Validate a linearization's inputs before any pointer reaches C."""
    _check_int_arrays(
        "ROMDD node arrays must be contiguous 1-D int64", level, offsets, children
    )
    n = len(level)
    if n < 3 or len(offsets) != n + 1:
        raise ValueError("ROMDD node arrays disagree in length")
    if not 2 <= root < n:
        raise ValueError("root handle out of range")
    if int(offsets[0]) != 0 or int(offsets[-1]) != len(children) or (_np.diff(offsets) < 0).any():
        raise ValueError("child offsets do not cover the child array")
    if len(children) and (int(children.min()) < 0 or int(children.max()) >= n):
        raise ValueError("a child handle is out of range")
    if not 1 <= num_levels < 2**31:
        raise ValueError("level count out of range")


def _run_linearize(lib, level, offsets, children, root, num_levels):
    """One ``repro_mdd_linearize`` call on checked arrays.

    Returns ``(status, info, arrays)``: ``arrays`` holds ``kids``,
    ``seg``, ``slot_levels`` and the flat ``bounds`` table, trimmed to the
    lengths ``info`` gives.  An array is the caller-allocated buffer itself
    when the walk reached every node, and a trimmed copy otherwise.
    """
    n = len(level)
    arrays = tuple(
        _np.empty(size, dtype=_np.int64)
        for size in (len(children), n - 1, n - 2, 6 * num_levels)
    )
    info = _np.zeros(4, dtype=_np.int64)
    status = lib.mdd_linearize(
        _ip(level), _ip(offsets), _ip(children), n, root, num_levels,
        *map(_ip, arrays), _ip(info),
    )
    info = info.tolist()
    lengths = (info[3], info[1] - 1, info[1] - 2, 6 * info[2])
    arrays = tuple(
        array if len(array) == size else array[:size].copy()
        for array, size in zip(arrays, lengths)
    )
    return status, info, arrays


def linearize_mdd(level, offsets, children, root, num_levels):
    """Linearize an ROMDD into the fused schedule arrays natively.

    ``level``/``offsets``/``children`` are the manager's CSR
    :meth:`~repro.mdd.MDDManager.node_arrays`, ``root`` a non-terminal
    handle and ``num_levels`` the manager's variable count.  Returns
    ``(root_slot, num_slots, (kids, seg, slot_levels, bounds))`` with
    exactly the slots and arrays of the numpy route of
    :meth:`repro.engine.batch.LinearizedDiagram.from_mdd` (``bounds`` as
    rows of six ints).  Raises as :func:`convert_bdd` does.
    """
    lib = _library()
    _check_linearization(level, offsets, children, root, num_levels)
    status, info, arrays = _run_linearize(lib, level, offsets, children, root, num_levels)
    _raise_for(status, "ROMDD linearization")
    kids, seg, slot_levels, bounds = arrays
    return info[0], info[1], (kids, seg, slot_levels, bounds.reshape(-1, 6).tolist())


# --------------------------------------------------------------------- #
# Pass execution
# --------------------------------------------------------------------- #


class _ScheduleContext:
    """The per-schedule arrays the C kernel consumes, prepared once.

    ``kids`` and ``bounds`` come straight from the FusedSchedule — when
    the schedule holds contiguous 8-byte integer arrays (the store's v2
    mmap included) they are passed zero-copy; anything else is converted
    exactly once and cached here.
    """

    __slots__ = (
        "kids",
        "bounds",
        "nlayers",
        "levels",
        "cards",
        "max_width",
        "sum_cards",
    )

    def __init__(self, schedule):
        kids = schedule.kids
        if not (
            isinstance(kids, _np.ndarray)
            and kids.dtype.kind == "i"
            and kids.dtype.itemsize == 8
            and kids.flags["C_CONTIGUOUS"]
        ):
            kids = _np.ascontiguousarray(kids, dtype=_np.int64)
        self.kids = kids
        self.bounds = _np.ascontiguousarray(
            _np.asarray(schedule.bounds, dtype=_np.int64)
        )
        self.nlayers = len(schedule.bounds)
        self.levels = tuple(b[0] for b in schedule.bounds)
        self.cards = tuple(b[5] for b in schedule.bounds)
        self.max_width = max(b[2] - b[1] for b in schedule.bounds)
        self.sum_cards = sum(self.cards)


def _context(schedule) -> _ScheduleContext:
    ctx = getattr(schedule, "_native_ctx", None)
    if ctx is None:
        ctx = _ScheduleContext(schedule)
        schedule._native_ctx = ctx
    return ctx


def _column_ptrs(ctx, columns_by_level, num_models):
    """Per-layer contiguous column-matrix pointers, deduplicated.

    Different levels usually share one matrix object (every location
    level points at the same ``C x K`` block), so contiguity conversion
    happens once per distinct matrix, not once per layer.
    """
    contiguous = {}
    keep = []
    ptrs = (_c_double_p * ctx.nlayers)()
    for index, level in enumerate(ctx.levels):
        columns = columns_by_level[level]
        entry = contiguous.get(id(columns))
        if entry is None:
            entry = _np.ascontiguousarray(columns, dtype=_np.float64)
            contiguous[id(columns)] = entry
            keep.append(columns)
        if entry.shape != (ctx.cards[index], num_models):
            raise NativeError(
                "level %d columns have shape %r, expected (%d, %d)"
                % (index, entry.shape, ctx.cards[index], num_models)
            )
        ptrs[index] = _dp(entry)
    # `contiguous` holds the converted arrays alive for the call; `keep`
    # pins the originals so id() keys stay unique
    return ptrs, (contiguous, keep)


def forward(diagram, columns_by_level, num_models):
    """Run the native bottom-up pass; returns ``(values, collapsed)``.

    ``values`` is the per-slot value matrix; the root row and every
    wide-layer row hold exactly the fused kernel's floats, while rows of
    collapsed (model-uniform) slots are deliberately unmaterialized —
    their scalar lives in the C side's width-1 table.  ``collapsed`` is
    the number of layers that took the collapse path.
    """
    lib = _library()
    ctx = _context(diagram.fused())
    ptrs, _hold = _column_ptrs(ctx, columns_by_level, num_models)
    values = _np.empty((diagram.num_slots, num_models), dtype=_np.float64)
    narrow_values = _np.empty(diagram.num_slots, dtype=_np.float64)
    narrow = _np.empty(diagram.num_slots, dtype=_np.uint8)
    collapsed = ctypes.c_int64(0)
    rc = lib.forward(
        _ip(ctx.kids),
        _ip(ctx.bounds),
        ctx.nlayers,
        ptrs,
        num_models,
        diagram.root_slot,
        _dp(values),
        _dp(narrow_values),
        narrow.ctypes.data_as(_c_uint8_p),
        ctypes.byref(collapsed),
    )
    if rc != 0:
        raise NativeError("native forward pass failed with status %d" % rc)
    return values, int(collapsed.value)


def backward(diagram, columns_by_level, num_models):
    """Native forward + reverse sweep.

    Returns ``(values, gradients, collapsed)`` where ``gradients`` has
    the exact shape and float contents of the fused kernel's result:
    ``{level: (per-value gradient row tuples)}``.
    """
    lib = _library()
    ctx = _context(diagram.fused())
    ptrs, _hold = _column_ptrs(ctx, columns_by_level, num_models)
    K = num_models
    values = _np.empty((diagram.num_slots, K), dtype=_np.float64)
    narrow_values = _np.empty(diagram.num_slots, dtype=_np.float64)
    narrow = _np.empty(diagram.num_slots, dtype=_np.uint8)
    adjoint = _np.empty((diagram.num_slots, K), dtype=_np.float64)
    grads = _np.empty(ctx.sum_cards * K, dtype=_np.float64)
    scratch = _np.empty(ctx.max_width, dtype=_np.float64)
    collapsed = ctypes.c_int64(0)
    rc = lib.backward(
        _ip(ctx.kids),
        _ip(ctx.bounds),
        ctx.nlayers,
        ptrs,
        K,
        diagram.num_slots,
        diagram.root_slot,
        _dp(values),
        _dp(narrow_values),
        narrow.ctypes.data_as(_c_uint8_p),
        _dp(adjoint),
        _dp(grads),
        _dp(scratch),
        ctypes.byref(collapsed),
    )
    if rc != 0:
        raise NativeError("native backward pass failed with status %d" % rc)
    gradients = {}
    offset = 0
    for level, card in zip(ctx.levels, ctx.cards):
        block = grads[offset : offset + card * K].reshape(card, K)
        gradients[level] = tuple(tuple(row) for row in block.tolist())
        offset += card * K
    return values, gradients, int(collapsed.value)
