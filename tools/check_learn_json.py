#!/usr/bin/env python3
"""Validate a cspsim --learn-out file against the csp-learn-v1 schema,
so CI catches a malformed learning-state export before csp learn or
csp diff consume it.

Checks, in order:

  1. The file parses as JSON with schema == "csp-learn-v1", an embedded
     run manifest, a prefetcher name, and the learn summary block.
  2. The learn summary carries the cst / policy / reward sub-blocks
     with numeric counters, and the internal accounting adds up
     (probe_hits <= probes, inserts + duplicates <= insert_attempts,
     positive + negative reward counts are non-negative).
  3. The snapshots array is non-empty, snapshot lookups are strictly
     increasing, epsilon/accuracy/entropy stay inside [0, 1], and
     cst_live_entries never exceeds cst_entries.
  4. Every top_contexts entry has a numeric key/churn and well-formed
     links (delta != 0, score within the signed Score8 range).

Exit 0 and a one-line summary on success; exit 1 with the first few
violations otherwise.

Usage: python3 tools/check_learn_json.py LEARN.json
"""

import json
import sys

SUMMARY_BLOCKS = {
    "cst": ("probes", "probe_hits", "insert_attempts", "inserts",
            "duplicates", "new_entries", "entry_evictions",
            "link_evictions", "tag_conflicts"),
    "policy": ("selections", "real", "shadow", "explorations",
               "epsilon_updates", "epsilon", "accuracy", "entropy"),
    "reward": ("cumulative", "positive", "negative", "expiries"),
}

SNAPSHOT_KEYS = ("lookup", "cycle", "epsilon", "accuracy", "entropy",
                 "cumulative_reward", "explorations", "associations",
                 "pq_hits", "pq_expiries", "cst_live_entries",
                 "cst_entries", "top_contexts")


def is_num(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check(path):
    errors = []
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"], 0

    if not isinstance(doc, dict):
        return ["top level is not a JSON object"], 0
    if doc.get("schema") != "csp-learn-v1":
        errors.append(f"schema {doc.get('schema')!r} != 'csp-learn-v1'")
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        errors.append("missing embedded run manifest")
    elif manifest.get("schema") != "csp-run-manifest-v1":
        errors.append(f"manifest schema {manifest.get('schema')!r}")
    if not isinstance(doc.get("prefetcher"), str):
        errors.append("missing prefetcher name")

    learn = doc.get("learn")
    if not isinstance(learn, dict):
        return errors + ["missing learn summary block"], 0
    for block, keys in SUMMARY_BLOCKS.items():
        sub = learn.get(block)
        if not isinstance(sub, dict):
            errors.append(f"learn.{block} missing")
            continue
        for key in keys:
            if not is_num(sub.get(key)):
                errors.append(f"learn.{block}.{key} missing or "
                              f"non-numeric")
    cst = learn.get("cst", {})
    if is_num(cst.get("probes")) and is_num(cst.get("probe_hits")):
        if cst["probe_hits"] > cst["probes"]:
            errors.append("probe_hits exceeds probes")
    if all(is_num(cst.get(k))
           for k in ("inserts", "duplicates", "insert_attempts")):
        if cst["inserts"] + cst["duplicates"] > cst["insert_attempts"]:
            errors.append("inserts + duplicates exceed insert_attempts")

    snapshots = doc.get("snapshots")
    if not isinstance(snapshots, list) or not snapshots:
        return errors + ["snapshots array missing or empty"], 0
    last_lookup = -1
    for n, snap in enumerate(snapshots):
        if not isinstance(snap, dict):
            errors.append(f"snapshot {n}: not an object")
            continue
        missing = [k for k in SNAPSHOT_KEYS if k not in snap]
        if missing:
            errors.append(f"snapshot {n}: missing {missing}")
            continue
        if snap["lookup"] <= last_lookup:
            errors.append(f"snapshot {n}: lookup {snap['lookup']} not "
                          f"increasing (prev {last_lookup})")
        last_lookup = snap["lookup"]
        for key in ("epsilon", "accuracy", "entropy"):
            value = snap[key]
            if not is_num(value) or not 0.0 <= value <= 1.0:
                errors.append(f"snapshot {n}: {key} {value!r} outside "
                              f"[0, 1]")
        if snap["cst_live_entries"] > snap["cst_entries"]:
            errors.append(f"snapshot {n}: cst_live_entries exceeds "
                          f"cst_entries")
        for c, ctx in enumerate(snap["top_contexts"]):
            if not (is_num(ctx.get("key")) and is_num(ctx.get("churn"))):
                errors.append(f"snapshot {n} ctx {c}: bad key/churn")
                continue
            for link in ctx.get("links", []):
                if not is_num(link.get("delta")) or link["delta"] == 0:
                    errors.append(f"snapshot {n} ctx {c}: bad link "
                                  f"delta {link.get('delta')!r}")
                elif not is_num(link.get("score")) or \
                        not -128 <= link["score"] <= 127:
                    errors.append(f"snapshot {n} ctx {c}: score "
                                  f"{link.get('score')!r} outside "
                                  f"Score8 range")
    return errors, len(snapshots)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    errors, snapshots = check(path)
    if errors:
        for err in errors[:20]:
            print(f"FAIL {path}: {err}", file=sys.stderr)
        if len(errors) > 20:
            print(f"... and {len(errors) - 20} more", file=sys.stderr)
        return 1
    print(f"OK {path}: {snapshots} snapshots")
    return 0


if __name__ == "__main__":
    sys.exit(main())
