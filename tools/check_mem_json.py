#!/usr/bin/env python3
"""Validate a cspsim --mem-out file against the csp-mem-v1 schema, so
CI catches a malformed memory-observatory export before csp mem or
csp diff consume it.

Checks, in order:

  1. The file parses as JSON with schema == "csp-mem-v1", an embedded
     run manifest, a prefetcher name, and the mem telemetry block.
  2. Each level block (mem.l1 / mem.l2) carries numeric accesses /
     classified / shadow_hits / capacity_lines, the four miss-class
     counters, and the accounting adds up: the classes sum exactly to
     classified, classified <= accesses, and the reuse histogram's
     sample count never exceeds accesses.
  3. The set-pressure block is well formed: totals are numeric, every
     top entry's set index is inside [0, count), its demand_share is in
     [0, 1], and per-set evictions never exceed that set's fills.
  4. The pollution block's per-level attributed/unattributed counters
     sum to that level's pollution class count, and every attribution
     pair carries a valid level and a positive count.
  5. The per-PC table and queue-depth timeline are structurally sound:
     PC rows have numeric access/miss counters with l1_misses <=
     accesses, timeline samples carry non-decreasing access positions.

Exit 0 and a one-line summary on success; exit 1 with the first few
violations otherwise.

Usage: python3 tools/check_mem_json.py MEM.json
"""

import json
import sys

CLASSES = ("compulsory", "pollution", "conflict", "capacity")

LEVEL_KEYS = ("accesses", "classified", "shadow_hits", "capacity_lines")

TIMELINE_KEYS = ("access", "cycle", "l1_mshr", "l2_mshr", "dram_backlog")


def is_num(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_level(name, level, errors):
    """Validate one mem.l1/mem.l2 block; returns its pollution count."""
    if not isinstance(level, dict):
        errors.append(f"mem.{name} missing")
        return 0
    for key in LEVEL_KEYS:
        if not is_num(level.get(key)):
            errors.append(f"mem.{name}.{key} missing or non-numeric")
    classes = level.get("classes")
    if not isinstance(classes, dict):
        errors.append(f"mem.{name}.classes missing")
        return 0
    total = 0
    for cls in CLASSES:
        if not is_num(classes.get(cls)):
            errors.append(f"mem.{name}.classes.{cls} missing or "
                          f"non-numeric")
            return 0
        total += classes[cls]
    if is_num(level.get("classified")):
        if total != level["classified"]:
            errors.append(f"mem.{name}: classes sum {total} != "
                          f"classified {level['classified']}")
        if is_num(level.get("accesses")) and \
                level["classified"] > level["accesses"]:
            errors.append(f"mem.{name}: classified exceeds accesses")
    reuse = level.get("reuse")
    if not isinstance(reuse, dict) or not is_num(reuse.get("count")):
        errors.append(f"mem.{name}.reuse missing or malformed")
    elif is_num(level.get("accesses")) and \
            reuse["count"] > level["accesses"]:
        errors.append(f"mem.{name}: reuse samples exceed accesses")

    sets = level.get("sets")
    if not isinstance(sets, dict):
        errors.append(f"mem.{name}.sets missing")
    else:
        for key in ("count", "fills_demand", "fills_prefetch",
                    "evictions"):
            if not is_num(sets.get(key)):
                errors.append(f"mem.{name}.sets.{key} missing or "
                              f"non-numeric")
        for n, top in enumerate(sets.get("top", [])):
            if not is_num(top.get("set")) or not (
                    is_num(sets.get("count"))
                    and 0 <= top["set"] < sets["count"]):
                errors.append(f"mem.{name}.sets.top[{n}]: set index "
                              f"{top.get('set')!r} out of range")
            share = top.get("demand_share")
            if not is_num(share) or not 0.0 <= share <= 1.0:
                errors.append(f"mem.{name}.sets.top[{n}]: demand_share "
                              f"{share!r} outside [0, 1]")
            if all(is_num(top.get(k)) for k in
                   ("evictions", "fills_demand", "fills_prefetch")):
                fills = top["fills_demand"] + top["fills_prefetch"]
                if top["evictions"] > fills:
                    errors.append(f"mem.{name}.sets.top[{n}]: "
                                  f"evictions exceed fills")
    return classes["pollution"]


def check(path):
    errors = []
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"], 0

    if not isinstance(doc, dict):
        return ["top level is not a JSON object"], 0
    if doc.get("schema") != "csp-mem-v1":
        errors.append(f"schema {doc.get('schema')!r} != 'csp-mem-v1'")
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        errors.append("missing embedded run manifest")
    elif manifest.get("schema") != "csp-run-manifest-v1":
        errors.append(f"manifest schema {manifest.get('schema')!r}")
    if not isinstance(doc.get("prefetcher"), str):
        errors.append("missing prefetcher name")

    mem = doc.get("mem")
    if not isinstance(mem, dict):
        return errors + ["missing mem telemetry block"], 0
    for key in ("interval", "accesses"):
        if not is_num(mem.get(key)):
            errors.append(f"mem.{key} missing or non-numeric")

    pollution_classified = {}
    for name in ("l1", "l2"):
        pollution_classified[name] = check_level(name, mem.get(name),
                                                 errors)

    pollution = mem.get("pollution")
    if not isinstance(pollution, dict):
        errors.append("mem.pollution missing")
    else:
        for name in ("l1", "l2"):
            level = pollution.get(name)
            if not isinstance(level, dict) or not all(
                    is_num(level.get(k))
                    for k in ("attributed", "unattributed")):
                errors.append(f"mem.pollution.{name} malformed")
                continue
            total = level["attributed"] + level["unattributed"]
            if total != pollution_classified[name]:
                errors.append(
                    f"mem.pollution.{name}: attributed + unattributed "
                    f"{total} != pollution class "
                    f"{pollution_classified[name]}")
        for n, pair in enumerate(pollution.get("pairs", [])):
            if pair.get("level") not in (1, 2):
                errors.append(f"mem.pollution.pairs[{n}]: bad level "
                              f"{pair.get('level')!r}")
            if not is_num(pair.get("count")) or pair["count"] <= 0:
                errors.append(f"mem.pollution.pairs[{n}]: bad count "
                              f"{pair.get('count')!r}")
            for key in ("issuer_pc", "demand_pc"):
                if not isinstance(pair.get(key), str):
                    errors.append(f"mem.pollution.pairs[{n}]: missing "
                                  f"{key}")

    for n, pc in enumerate(mem.get("pc", [])):
        if not isinstance(pc.get("pc"), str):
            errors.append(f"mem.pc[{n}]: missing pc")
        if not all(is_num(pc.get(k))
                   for k in ("accesses", "l1_misses", "l2_misses")):
            errors.append(f"mem.pc[{n}]: non-numeric counters")
        elif pc["l1_misses"] > pc["accesses"]:
            errors.append(f"mem.pc[{n}]: l1_misses exceed accesses")

    shadow = mem.get("shadow")
    if not isinstance(shadow, dict) or not all(
            is_num(shadow.get(k))
            for k in ("compactions", "l1_live_lines", "l2_live_lines")):
        errors.append("mem.shadow missing or malformed")

    timeline = mem.get("timeline")
    if not isinstance(timeline, list):
        errors.append("mem.timeline is not an array")
        timeline = []
    last_access = -1
    for n, sample in enumerate(timeline):
        missing = [k for k in TIMELINE_KEYS
                   if not is_num(sample.get(k))]
        if missing:
            errors.append(f"mem.timeline[{n}]: missing {missing}")
            continue
        if sample["access"] < last_access:
            errors.append(f"mem.timeline[{n}]: access position "
                          f"{sample['access']} decreased")
        last_access = sample["access"]

    classified = sum(pollution_classified.values())
    return errors, (mem.get("accesses", 0), classified, len(timeline))


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    errors, summary = check(path)
    if errors:
        for err in errors[:20]:
            print(f"FAIL {path}: {err}", file=sys.stderr)
        if len(errors) > 20:
            print(f"... and {len(errors) - 20} more", file=sys.stderr)
        return 1
    accesses, pollution, samples = summary
    print(f"OK {path}: {accesses} accesses, {pollution} pollution "
          f"misses, {samples} timeline samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
