"""The registered invariant rules (``REP0xx``).

Every rule statically enforces an invariant the dynamic test suite
already proves at run time -- the point is to catch violations at the
source level, on every commit, instead of waiting for a CI ``cmp`` to
happen to hit the nondeterministic path.  Three families:

**Determinism** (canonical reports must be byte-identical across
engines, worker counts and kill schedules):

* ``REP001`` -- no wall/process-clock reads (``time.time``,
  ``datetime.now``, ``time.perf_counter``, ...) outside ``obs/``.
  Timing-provenance sites (worker ``ShardTiming``, engine
  ``build_seconds``, lease expiries) carry justified
  ``# repro: allow`` suppressions.  Mirrors the cross-engine identity
  suites and the telemetry inertness matrix.
* ``REP002`` -- no unseeded randomness: module-level ``random.*`` calls
  and argument-less ``random.Random()`` are rejected; only explicitly
  seeded ``random.Random(seed)`` instances are allowed (the
  ``baselines/random_walk.py`` pattern).  Mirrors the sampled-sweep
  cross-process determinism tests.
* ``REP003`` -- directory scans (``os.listdir``, ``Path.iterdir``,
  ``glob``) must pass through ``sorted()`` before anything iterates
  them: filesystem enumeration order is platform noise.  Mirrors the
  campaign byte-identity-across-worker-counts CI gate.
* ``REP004`` -- in canonical-report modules (``runtime``, ``sim``,
  ``experiments``, ``analysis``, ``lower_bounds``, ``api.py``), nothing
  iterates a ``set`` value directly: set order is salted per process.
  Mirrors the same byte-identity gates.

**Atomicity** (the cluster queue protocol rests on readers never seeing
partial documents):

* ``REP010`` -- inside ``cluster/`` (``files.py`` itself excepted, it
  *is* the primitive layer), file writes must route through the
  ``files.py`` helpers: bare ``open(..., "w")``/``write_text`` (or
  ``os.open`` with ``O_CREAT`` but no ``O_EXCL``) can tear under kill
  schedules.  Mirrors the SIGKILL kill-matrix suite in
  ``tests/cluster/``.
* ``REP011`` -- outside ``runtime/store/``, no file writes naming the
  store's on-disk format (``.jsonl`` paths): the run store's bytes
  have exactly one writer, :class:`~repro.runtime.store.RunStore`, so
  its append-atomicity and first-write-claim guarantees cannot be
  bypassed.  Mirrors the racing-append and byte-identity suites in
  ``tests/runtime/test_store_backends.py``.

**Inertness** (telemetry observes, never influences):

* ``REP020`` -- a ``telemetry`` parameter must default to
  ``NULL_TELEMETRY`` (or ``None``, the resolved-at-the-front-door
  convention of :mod:`repro.api`): telemetry must be opt-in at every
  call site.  A function whose *first* argument is the telemetry is
  plumbing of the telemetry itself and is exempt.
* ``REP021`` -- the value of a telemetry method call must not be
  consumed (assigned, returned, passed on): the only sanctioned shapes
  are a bare statement and a ``with telemetry.span(...)`` block.
  Both mirror the telemetry x engine x workers inertness matrix in
  ``tests/obs/``.

**Soundness** (pruning decisions have exactly one vetted funnel):

* ``REP030`` -- outside ``sim/prune.py``, a parameter or dataclass
  field named ``prune`` must default to ``None``: the only place a
  concrete pruning default may live is
  :func:`repro.sim.prune.resolve_prune` (parameter > ``REPRO_PRUNE``
  env > ``DEFAULT_PRUNE``), so no call path can silently pin pruning
  on or off and drift from the byte-identity contract.  Mirrors the
  prune-on/off identity matrix in ``tests/sim/test_cube.py``.

Rules register themselves into :data:`repro.registry.LINT_RULES` at
import time, exactly like graph families and algorithms, so
``--select``/``--ignore`` resolve through the same :class:`SpecError`
machinery.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, SourceModule
from repro.registry import LINT_RULES


class Rule:
    """Base class: one id, one invariant, one AST check."""

    id: str = ""
    summary: str = ""

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return module.finding(self.id, node, message)


# ----------------------------------------------------------------------
# Name resolution through a module's imports
# ----------------------------------------------------------------------


def import_table(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, for every import in the module.

    ``import time as t`` maps ``t -> time``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``.  Conditional and
    function-local imports count too (``ast.walk`` sees them all): a
    rule matching ``time.time`` should not care where the import sits.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def resolve_dotted(node: ast.AST, table: dict[str, str]) -> "str | None":
    """The dotted origin an expression names, or ``None``.

    Only resolves chains rooted in an imported name: a local variable
    that happens to be called ``time`` never matches ``time.time``.
    """
    if isinstance(node, ast.Name):
        return table.get(node.id)
    if isinstance(node, ast.Attribute):
        base = resolve_dotted(node.value, table)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def _enclosing_call_names(module: SourceModule, node: ast.AST) -> Iterator[str]:
    """Names of the calls wrapping ``node``, innermost first.

    Ascends the parent map up to (not including) the enclosing
    statement, yielding ``sorted`` for ``sorted(os.listdir(d))`` -- the
    shape the scan rules accept.
    """
    current = module.parent(node)
    while current is not None and not isinstance(current, ast.stmt):
        if isinstance(current, ast.Call) and isinstance(current.func, ast.Name):
            yield current.func.id
        current = module.parent(current)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


#: Clock callables whose values are nondeterministic between runs.
WALL_CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@LINT_RULES.register(
    "REP001",
    family="determinism",
    mirrors="cross-engine identity suites (tests/sim, tests/obs inertness)",
)
class WallClockRule(Rule):
    id = "REP001"
    summary = "no wall-clock reads outside obs/ and justified timing provenance"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.in_dir("obs"):
            return
        table = import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            # Only the outermost attribute of a chain can match (the
            # prefix of a matching chain is never itself in the set).
            resolved = resolve_dotted(node, table)
            if resolved in WALL_CLOCKS:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock reference {resolved}() can leak "
                    "nondeterminism into canonical paths; inject a clock or "
                    "keep timing inside obs/ (suppress with a justified "
                    "`# repro: allow(REP001)` for provenance-only timing)",
                )


#: random-module functions drawing from the shared, unseeded global state.
RANDOM_MODULE_FNS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


@LINT_RULES.register(
    "REP002",
    family="determinism",
    mirrors="sampled-sweep cross-process determinism (tests/sim/test_batch.py)",
)
class UnseededRandomRule(Rule):
    id = "REP002"
    summary = "only seeded random.Random(seed) instances, never module-level random"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        table = import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_dotted(node.func, table)
            if resolved is None or not resolved.startswith("random."):
                continue
            tail = resolved[len("random."):]
            if tail == "Random" and not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node,
                    "random.Random() without a seed is entropy-seeded; pass "
                    "an explicit seed (random.Random(0x5EED))",
                )
            elif tail == "SystemRandom":
                yield self.finding(
                    module,
                    node,
                    "random.SystemRandom draws OS entropy and can never "
                    "reproduce; use a seeded random.Random instead",
                )
            elif tail in RANDOM_MODULE_FNS:
                yield self.finding(
                    module,
                    node,
                    f"module-level random.{tail}() uses the shared unseeded "
                    "generator; use a seeded random.Random instance",
                )


#: Callables returning filesystem entries in enumeration order.
_SCAN_FUNCTIONS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
_SCAN_METHODS = frozenset({"iterdir", "glob", "rglob"})
#: Wrappers that make enumeration order irrelevant.
_ORDER_SAFE_WRAPPERS = frozenset({"sorted", "len"})


@LINT_RULES.register(
    "REP003",
    family="determinism",
    mirrors="campaign byte-identity across worker counts (CI experiments job)",
)
class UnsortedScanRule(Rule):
    id = "REP003"
    summary = "directory scans must pass through sorted() before iteration"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        table = import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_dotted(node.func, table)
            if resolved in _SCAN_FUNCTIONS:
                label = resolved
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCAN_METHODS
                # Plain-name receivers only when not an import (glob.glob
                # resolves above); methods on arbitrary objects are
                # assumed Path-like -- over-matching is a suppression,
                # under-matching is a silent nondeterminism.
                and resolved is None
            ):
                label = f".{node.func.attr}"
            else:
                continue
            if any(
                name in _ORDER_SAFE_WRAPPERS
                for name in _enclosing_call_names(module, node)
            ):
                continue
            yield self.finding(
                module,
                node,
                f"{label}() yields entries in filesystem enumeration order; "
                "wrap the scan in sorted() so downstream iteration is "
                "deterministic",
            )


#: Directory components marking modules that assemble canonical reports.
CANONICAL_DIRS = frozenset(
    {"runtime", "sim", "experiments", "analysis", "lower_bounds"}
)
_SET_BUILTINS = frozenset({"set", "frozenset"})


@LINT_RULES.register(
    "REP004",
    family="determinism",
    mirrors="campaign byte-identity across worker counts (CI experiments job)",
)
class SetIterationRule(Rule):
    id = "REP004"
    summary = "canonical-report modules never iterate a set directly"

    def _applies(self, module: SourceModule) -> bool:
        return module.name == "api.py" or any(
            module.in_dir(directory) for directory in CANONICAL_DIRS
        )

    def _is_set_value(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _SET_BUILTINS
        )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not self._applies(module):
            return
        iterated: list[ast.AST] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterated.append(node.iter)
            elif isinstance(node, ast.comprehension):
                iterated.append(node.iter)
        for value in iterated:
            if self._is_set_value(value):
                yield self.finding(
                    module,
                    value,
                    "iterating a set directly leaks per-process hash-seed "
                    "order into a canonical-report module; iterate "
                    "sorted(...) instead",
                )


# ----------------------------------------------------------------------
# Atomicity
# ----------------------------------------------------------------------


_WRITE_MODE_CHARS = frozenset("wax+")


def _write_mode(node: ast.Call, mode_position: int) -> "str | None":
    """The constant write mode of an ``open``-style call, if any."""
    mode: "ast.AST | None" = None
    if len(node.args) > mode_position:
        mode = node.args[mode_position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if _WRITE_MODE_CHARS & set(mode.value):
            return mode.value
    return None


def _flag_names(node: ast.AST) -> set[str]:
    """The attribute/plain names OR-ed together in an os.open flags expr."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.Name):
            names.add(child.id)
    return names


@LINT_RULES.register(
    "REP010",
    family="atomicity",
    mirrors="SIGKILL kill matrix (tests/cluster/)",
)
class BareWriteRule(Rule):
    id = "REP010"
    summary = "cluster/ file writes must use the files.py atomic helpers"

    _ADVICE = (
        "; route writes under the cluster queue root through "
        "repro.cluster.files (write_json_atomic / try_create_json) so a "
        "kill schedule can never expose a torn document"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_dir("cluster") or module.name == "files.py":
            return
        table = import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_dotted(node.func, table)
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                mode = _write_mode(node, mode_position=1)
                if mode is not None:
                    yield self.finding(
                        module,
                        node,
                        f"bare open(..., {mode!r}) is not atomic" + self._ADVICE,
                    )
            elif isinstance(node.func, ast.Attribute) and resolved is None:
                if node.func.attr == "open":
                    mode = _write_mode(node, mode_position=0)
                    if mode is not None:
                        yield self.finding(
                            module,
                            node,
                            f".open(..., {mode!r}) is not atomic" + self._ADVICE,
                        )
                elif node.func.attr in ("write_text", "write_bytes"):
                    yield self.finding(
                        module,
                        node,
                        f".{node.func.attr}() is not atomic" + self._ADVICE,
                    )
            elif resolved == "os.open" and len(node.args) >= 2:
                flags = _flag_names(node.args[1])
                if "O_CREAT" in flags and "O_EXCL" not in flags:
                    yield self.finding(
                        module,
                        node,
                        "os.open with O_CREAT but no O_EXCL is neither an "
                        "atomic claim nor an atomic replace" + self._ADVICE,
                    )


def _constant_strings(node: ast.AST) -> Iterator[str]:
    """Every string constant anywhere inside the expression."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


@LINT_RULES.register(
    "REP011",
    family="atomicity",
    mirrors="racing-append and byte-identity suites "
            "(tests/runtime/test_store_backends.py)",
)
class StoreBoundaryRule(Rule):
    id = "REP011"
    summary = "run-store .jsonl bytes are written only by runtime/store/"

    _ADVICE = (
        "; the run store's on-disk format belongs to "
        "repro.runtime.store.RunStore -- its append-atomicity and "
        "first-write-claim guarantees only hold while it is the store "
        "root's single writer"
    )

    def _store_write_label(
        self, node: ast.Call, table: dict[str, str]
    ) -> "str | None":
        """How this call writes a store-format file, or ``None``."""
        resolved = resolve_dotted(node.func, table)
        writes = False
        label = ""
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            writes = _write_mode(node, mode_position=1) is not None
            label = "open()"
        elif isinstance(node.func, ast.Attribute) and resolved is None:
            if node.func.attr == "open":
                writes = _write_mode(node, mode_position=0) is not None
                label = ".open()"
            elif node.func.attr in ("write_text", "write_bytes"):
                writes = True
                label = f".{node.func.attr}()"
        elif resolved == "os.open" and len(node.args) >= 2:
            flags = _flag_names(node.args[1])
            writes = bool(
                {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT"} & flags
            )
            label = "os.open()"
        if not writes:
            return None
        if any(".jsonl" in value for value in _constant_strings(node)):
            return f"{label} on a .jsonl path"
        return None

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.in_dir("store"):
            return
        table = import_table(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                label = self._store_write_label(node, table)
                if label is not None:
                    yield self.finding(
                        module,
                        node,
                        f"{label} writes run-store bytes outside "
                        "runtime/store/" + self._ADVICE,
                    )


# ----------------------------------------------------------------------
# Inertness
# ----------------------------------------------------------------------


def _is_inert_default(node: "ast.AST | None") -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    if isinstance(node, ast.Name) and node.id == "NULL_TELEMETRY":
        return True
    return isinstance(node, ast.Attribute) and node.attr == "NULL_TELEMETRY"


@LINT_RULES.register(
    "REP020",
    family="inertness",
    mirrors="telemetry x engine x workers inertness matrix (tests/obs/)",
)
class TelemetryDefaultRule(Rule):
    id = "REP020"
    summary = "telemetry parameters default to NULL_TELEMETRY (telemetry is opt-in)"

    _MESSAGE = (
        "telemetry must be opt-in: default the parameter to NULL_TELEMETRY "
        "(or None where repro.api resolves it)"
    )

    def _check_function(
        self, module: SourceModule, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Finding]:
        args = node.args
        positional = args.posonlyargs + args.args
        named = [arg.arg for arg in positional if arg.arg not in ("self", "cls")]
        # A function taking the telemetry first is telemetry plumbing
        # (an emission helper), not an instrumented computation.
        if named and named[0] == "telemetry":
            return
        defaults: "list[ast.AST | None]" = [None] * (
            len(positional) - len(args.defaults)
        ) + list(args.defaults)
        for arg, default in zip(positional, defaults):
            if arg.arg == "telemetry" and not _is_inert_default(default):
                yield self.finding(module, arg, self._MESSAGE)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == "telemetry" and not _is_inert_default(default):
                yield self.finding(module, arg, self._MESSAGE)

    def _check_class_field(
        self, module: SourceModule, node: ast.AnnAssign
    ) -> Iterator[Finding]:
        if not (isinstance(node.target, ast.Name) and node.target.id == "telemetry"):
            return
        value = node.value
        if isinstance(value, ast.Call):
            # dataclasses.field(...): check an explicit default= keyword,
            # trust default_factory (it cannot be NULL_TELEMETRY anyway).
            for keyword in value.keywords:
                if keyword.arg == "default" and not _is_inert_default(keyword.value):
                    yield self.finding(module, node, self._MESSAGE)
            return
        if not _is_inert_default(value):
            yield self.finding(module, node, self._MESSAGE)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.in_dir("obs"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)
            elif isinstance(node, ast.ClassDef):
                for statement in node.body:
                    if isinstance(statement, ast.AnnAssign):
                        yield from self._check_class_field(module, statement)


#: Methods of the Telemetry front end (values must never be consumed).
TELEMETRY_METHODS = frozenset(
    {
        "close",
        "count",
        "elapsed",
        "emit",
        "event",
        "gauge",
        "message",
        "progress",
        "span",
        "warn",
    }
)
_TELEMETRY_NAMES = frozenset({"telemetry", "tele"})
_TELEMETRY_ATTRS = frozenset({"telemetry", "_telemetry"})


def _is_telemetry_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _TELEMETRY_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _TELEMETRY_ATTRS
    return False


@LINT_RULES.register(
    "REP021",
    family="inertness",
    mirrors="telemetry x engine x workers inertness matrix (tests/obs/)",
)
class TelemetryFlowRule(Rule):
    id = "REP021"
    summary = "telemetry call values never flow back into the computation"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.in_dir("obs"):
            return
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in TELEMETRY_METHODS
                and _is_telemetry_receiver(node.func.value)
            ):
                continue
            parent = module.parent(node)
            if isinstance(parent, (ast.Expr, ast.withitem)):
                continue
            yield self.finding(
                module,
                node,
                f"the value of telemetry.{node.func.attr}(...) is consumed "
                "by the instrumented code path; telemetry must stay inert "
                "-- emit as a bare statement or `with telemetry.span(...)`",
            )


# ----------------------------------------------------------------------
# Soundness
# ----------------------------------------------------------------------


def _is_none_default(node: "ast.AST | None") -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@LINT_RULES.register(
    "REP030",
    family="soundness",
    mirrors="prune-on/off byte-identity matrix (tests/sim/test_cube.py)",
)
class PruneDefaultRule(Rule):
    id = "REP030"
    summary = "prune parameters default to None outside sim/prune.py"

    _MESSAGE = (
        "a concrete prune default pins pruning outside the vetted funnel; "
        "default to None and let repro.sim.prune.resolve_prune decide "
        "(parameter > REPRO_PRUNE > DEFAULT_PRUNE)"
    )

    def _check_function(
        self, module: SourceModule, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Finding]:
        args = node.args
        positional = args.posonlyargs + args.args
        defaults: "list[ast.AST | None]" = [None] * (
            len(positional) - len(args.defaults)
        ) + list(args.defaults)
        for arg, default in zip(positional, defaults):
            if arg.arg == "prune" and default is not None:
                if not _is_none_default(default):
                    yield self.finding(module, arg, self._MESSAGE)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == "prune" and default is not None:
                if not _is_none_default(default):
                    yield self.finding(module, arg, self._MESSAGE)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.in_dir("sim") and module.name == "prune.py":
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)
            elif isinstance(node, ast.ClassDef):
                for statement in node.body:
                    if (
                        isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and statement.target.id == "prune"
                        and statement.value is not None
                        and not _is_none_default(statement.value)
                    ):
                        yield self.finding(module, statement, self._MESSAGE)


__all__ = [
    "BareWriteRule",
    "CANONICAL_DIRS",
    "PruneDefaultRule",
    "RANDOM_MODULE_FNS",
    "Rule",
    "SetIterationRule",
    "StoreBoundaryRule",
    "TELEMETRY_METHODS",
    "TelemetryDefaultRule",
    "TelemetryFlowRule",
    "UnseededRandomRule",
    "UnsortedScanRule",
    "WALL_CLOCKS",
    "WallClockRule",
    "import_table",
    "resolve_dotted",
]
