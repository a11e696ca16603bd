"""Canonical serialization and content fingerprints for the store.

Everything persisted is JSON produced by :func:`canonical_dumps` —
sorted keys, no whitespace — so byte identity means structural identity
and sha256 over the bytes is a usable content address.

Two properties matter for soundness:

- **Site ids never appear in payloads.** Lowered call-site ids are
  assigned program-wide and shift when an unrelated procedure gains or
  loses a call, so a stored jump-function table keyed by raw site id
  would spuriously mismatch (or worse, silently alias) after an edit.
  Forward jump functions are instead serialized per procedure in the
  procedure's textual call-site order, which is stable under edits to
  *other* procedures.
- **The fingerprint covers everything a procedure's jump functions and
  MOD/REF behaviour are derived from**: the lowered IR listing, the
  formal signature, the procedure's transitive MOD/REF slice, and the
  analysis configuration. A callee body change that alters MOD/REF
  propagates into every transitive caller's fingerprint through the
  slice, which is exactly when callers' SSA/value numbering can change.
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.valuenum import RESULT_KEY
from repro.core.config import AnalysisConfig
from repro.core.exprs import (
    BOTTOM_EXPR,
    ConstExpr,
    EntryExpr,
    EntryKey,
    OpExpr,
    ValueExpr,
    const_expr,
    entry_expr,
    make_binary,
    make_intrinsic,
    make_unary,
)
from repro.core.lattice import BOTTOM, TOP, LatticeValue
from repro.frontend.symbols import GlobalId, Program
from repro.ir.lower import LoweredProcedure, LoweredProgram
from repro.ir.printer import format_cfg

#: bump when any serialized shape changes — a store written by another
#: schema is treated as foreign and rebuilt from scratch.
SCHEMA = 1


def canonical_dumps(payload) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def sha256_of(payload) -> str:
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


# -- lattice values and entry keys --------------------------------------------


def encode_value(value: LatticeValue):
    if value is TOP:
        return "T"
    if value is BOTTOM:
        return "B"
    if isinstance(value, bool):
        return ["b", value]
    return ["i", int(value)]


def decode_value(encoded) -> LatticeValue:
    if encoded == "T":
        return TOP
    if encoded == "B":
        return BOTTOM
    tag, raw = encoded
    if tag == "b":
        return bool(raw)
    if tag == "i":
        return int(raw)
    raise ValueError(f"unknown lattice value encoding: {encoded!r}")


def encode_key(key: EntryKey) -> str:
    if isinstance(key, GlobalId):
        return f"g:{key.block}:{key.offset}"
    if key == RESULT_KEY:
        return "r:"
    return f"f:{key}"


def decode_key(encoded: str) -> EntryKey:
    kind, _, rest = encoded.partition(":")
    if kind == "g":
        block, _, offset = rest.rpartition(":")
        return GlobalId(block, int(offset))
    if kind == "r":
        return RESULT_KEY
    if kind == "f":
        return rest
    raise ValueError(f"unknown entry key encoding: {encoded!r}")


# -- jump-function expressions ------------------------------------------------


def encode_expr(expr: ValueExpr):
    if expr.is_bottom:
        return ["bot"]
    cls = expr.__class__
    if cls is ConstExpr:
        tag = "b" if isinstance(expr.value, bool) else "i"
        return ["c", tag, expr.value]
    if cls is EntryExpr:
        return ["e", encode_key(expr.key)]
    if cls is OpExpr:
        return ["o", expr.op, expr.arity, [encode_expr(a) for a in expr.args]]
    raise ValueError(f"unencodable expression type: {cls.__name__}")


def decode_expr(encoded) -> ValueExpr:
    """Rebuild an interned expression through the smart constructors, so
    a decoded tree is identical (by identity) to a freshly built one."""
    tag = encoded[0]
    if tag == "bot":
        return BOTTOM_EXPR
    if tag == "c":
        _, kind, raw = encoded
        return const_expr(bool(raw) if kind == "b" else int(raw))
    if tag == "e":
        return entry_expr(decode_key(encoded[1]))
    if tag == "o":
        _, op, arity, raw_args = encoded
        args = [decode_expr(a) for a in raw_args]
        if arity == "bin":
            return make_binary(op, args[0], args[1])
        if arity == "un":
            return make_unary(op, args[0])
        if arity == "intrinsic":
            return make_intrinsic(op, args)
        raise ValueError(f"unknown operator arity: {arity!r}")
    raise ValueError(f"unknown expression encoding: {encoded!r}")


def encode_env(env: dict[EntryKey, LatticeValue]) -> dict:
    return {encode_key(key): encode_value(value) for key, value in env.items()}


def decode_env(
    encoded: dict, keys: list[EntryKey]
) -> dict[EntryKey, LatticeValue]:
    """Decode a stored entry environment against the *current* key set.

    Raises ``ValueError`` when the stored environment does not cover
    exactly the procedure's current entry keys — a shape mismatch means
    the snapshot does not describe this program and the caller must fall
    back to a cold run.
    """
    env: dict[EntryKey, LatticeValue] = {}
    for key in keys:
        slot = encoded.get(encode_key(key))
        if slot is None:
            raise ValueError(f"stored environment is missing {key!r}")
        env[key] = decode_value(slot)
    if len(encoded) != len(keys):
        raise ValueError("stored environment has extra keys")
    return env


# -- procedure payloads -------------------------------------------------------


def config_key(config: AnalysisConfig) -> str:
    """A stable identity for everything configuration-dependent in the
    pipeline. The dataclass repr enumerates every field, so any new
    config knob automatically partitions the store."""
    return repr(config)


def procedure_fingerprint(
    name: str,
    lowered: LoweredProgram,
    modref,
    cfg_key: str,
) -> str:
    """Content fingerprint of one procedure: lowered IR + formal
    signature + the procedure's transitive MOD/REF slice + config.

    Kept on the :class:`~repro.ir.lower.LoweredProcedure` under the
    config key and the slice, so an edit renders the IR listing of the
    units it re-lowered only. A hit keeps the slice it was given, so the
    cache holds no summary of an older MOD/REF computation."""
    proc = lowered.procedures[name]
    mod_formals = modref.mod_formals.get(name, ())
    mod_globals = modref.mod_globals.get(name, ())
    ref_formals = modref.ref_formals.get(name, ())
    ref_globals = modref.ref_globals.get(name, ())
    slice_ = (mod_formals, mod_globals, ref_formals, ref_globals)
    cached = proc.fingerprint
    if cached is not None and cached[0] == cfg_key and cached[1] == slice_:
        proc.fingerprint = (cfg_key, slice_, cached[2])
        return cached[2]
    signature = [
        [f.name, f.type.name, bool(f.is_array)]
        for f in proc.procedure.formals
    ]
    slice_payload = {
        "mod_formals": sorted(mod_formals),
        "mod_globals": sorted(encode_key(g) for g in mod_globals),
        "ref_formals": sorted(ref_formals),
        "ref_globals": sorted(encode_key(g) for g in ref_globals),
    }
    payload = {
        "schema": SCHEMA,
        "proc": name,
        "config": cfg_key,
        "ir": format_cfg(proc.cfg, name),
        "signature": signature,
        "modref": slice_payload,
    }
    fp = sha256_of(payload)
    proc.fingerprint = (cfg_key, slice_, fp)
    return fp


def globals_fingerprint(program: Program) -> str:
    """Identity of the COMMON-block layout and DATA initializations —
    the main program's seed environment and every procedure's global key
    set derive from it, so a change invalidates everything."""
    rows = sorted(
        [
            gid.block,
            gid.offset,
            gvar.type.name,
            bool(gvar.is_array),
            encode_value(gvar.data_value)
            if isinstance(gvar.data_value, (bool, int))
            else None,
        ]
        for gid, gvar in program.globals.items()
    )
    return sha256_of({"schema": SCHEMA, "globals": rows})


def encode_forward_jfs(lowered_proc: LoweredProcedure, sites) -> list:
    """One procedure's forward jump functions: one entry per call site
    in textual (lowering) order, without raw site ids. ``sites`` is
    stage 2's site table (site id -> entry key -> flow edge); each entry
    names its callee and encodes each edge's expression, formals by name
    and globals by encoded key."""
    entries = []
    for call in lowered_proc.call_instrs:
        site = sites.get(call.site_id)
        if site is None:
            continue
        formals: dict[str, list] = {}
        global_rows: dict[str, list] = {}
        for key, edge in site.items():
            if isinstance(key, GlobalId):
                global_rows[encode_key(key)] = encode_expr(edge.func)
            else:
                formals[key] = encode_expr(edge.func)
        entries.append(
            {
                "callee": call.callee,
                "formals": dict(sorted(formals.items())),
                "globals": dict(sorted(global_rows.items())),
            }
        )
    return entries


def encode_all_forward_jfs(
    lowered: LoweredProgram, sites
) -> dict[str, list]:
    """Every procedure's forward jump functions
    (:func:`encode_forward_jfs`), by procedure name."""
    return {
        name: encode_forward_jfs(lowered_proc, sites)
        for name, lowered_proc in lowered.procedures.items()
    }
