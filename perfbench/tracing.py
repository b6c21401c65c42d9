"""Spans around the program's public names, recorded from outside `src/`.

`install` rebinds public names in the module namespaces that call them,
so each call (or, for generators, each `next`) becomes a span kept in
memory as [name, start, end, parent].  `layer_metrics` turns the spans
of one traced workload call into the per-layer metrics.  A name the
program no longer has is skipped, and the metrics it fed read 0.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pool_candidates = 0
        self.pool_rows_kept = 0
        self.pool_bytes = 0
        self.orbit_members = 0
        self.results = 0

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def iterate(self, name, iterator):
        """Yield from `iterator`, timing each `next` as one span.

        A span that produced an item is named `name.item`; the last one,
        which found the iterator exhausted, keeps `name`.
        """
        while True:
            sid = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(sid)
            self.spans[sid][0] = name + ".item"
            yield item

    def wrap(self, module, attr, name, after=None, generator=False):
        fn = getattr(module, attr, None) if module is not None else None
        if fn is None:
            return

        def traced(*args, **kwargs):
            if generator:
                return self.iterate(name, fn(*args, **kwargs))
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def wrap_engine(self, module, full: bool):
        """Replace `PairDfs` in `module` with a subclass that spans init and walk."""
        base = getattr(module, "PairDfs", None)
        if base is None:
            return
        tracer = self

        class TracedPairDfs(base):
            def __init__(self, *args, **kwargs):
                preset = kwargs.get("preset", args[3] if len(args) > 3 else ())
                self._kind = "full" if full else ("fill" if preset else "seed")
                sid = tracer.open(f"engine.{self._kind}.init")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(sid)

            def walk(self, *args, **kwargs):
                return tracer.iterate(f"engine.{self._kind}.walk", super().walk(*args, **kwargs))

        module.PairDfs = TracedPairDfs


def _count_pool(tracer: Tracer):
    def after(args, kwargs, pool):
        n, kind, target_sum, cfg = args[:4]
        length = n if kind == "C" else n - 1
        negatives, rem = divmod(length - target_sum, 2)
        # build_pool enumerates every row of the sum unless f(0) = sum^2 fails first.
        if not rem and 0 <= negatives <= length and target_sum**2 <= cfg.spectral_bound + 1e-6:
            tracer.pool_candidates += math.comb(length, negatives)
        tracer.pool_rows_kept += pool.total
        tracer.pool_bytes += pool.total * (length + 8 * cfg.grid_points)

    return after


def install(tracer: Tracer) -> None:
    """Wrap the library's public names where the library itself calls them."""
    mods = sys.modules
    for ns in ("turynseq.search", "turynseq.enumeration"):
        m = mods[ns]
        short = ns.split(".")[1]
        tracer.wrap_engine(m, full=short == "enumeration")
        for attr in ("verify_tt", "is_canonical", "encode"):
            tracer.wrap(m, attr, f"{attr}@{short}")
    # `import turynseq.search as m` would bind the function `search`.
    search_mod = mods["turynseq.search"]
    tracer.wrap(search_mod, "build_pool", "build_pool@search", after=_count_pool(tracer))
    tracer.wrap(search_mod, "generate_seeds", "generate_seeds@search", generator=True)
    core = mods["turynseq.core"]

    def count_orbit(args, kwargs, members):
        tracer.orbit_members += len(members)

    tracer.wrap(core, "orbit", "orbit@core", after=count_orbit)
    tracer.wrap(core, "is_canonical", "is_canonical@core")
    tracer.wrap(core, "naf_all", "naf_all@core")
    tracer.wrap(mods["turynseq.constructions"], "naf_all", "naf_all@constructions")

    def count_results(args, kwargs, result):
        tracer.results += len(result)

    cli = mods.get("turynseq.cli")
    tracer.wrap(cli, "enumerate_canonical", "enumerate_canonical@cli")
    tracer.wrap(cli, "run_sweep", "run_sweep@cli", after=count_results)
    tracer.wrap(cli, "search", "search@cli", after=count_results)


def layer_metrics(tracer: Tracer, seed_index: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced call; absent layers read 0."""
    dur = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    for sid, (name, start, end, parent) in enumerate(tracer.spans):
        d = end - start
        dur[name] += d
        self_time[name] += d - child[sid]
        calls[name] += 1

    def total(*names):
        return sum(dur[n] + dur[n + ".item"] for n in names)

    def by_fn(attr):
        names = [n for n in calls if n.partition("@")[0] == attr]
        return sum(calls[n] for n in names), sum(dur[n] for n in names)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    # A walk's time is building its engine plus consuming its generator.
    full_s, seed_s, fill_s = (
        total(f"engine.{kind}.init", f"engine.{kind}.walk") for kind in ("full", "seed", "fill")
    )
    leaves = calls["engine.full.walk.item"]
    seeds = calls["engine.seed.walk.item"]
    fill_walks = calls["engine.fill.init"]
    completions = calls["engine.fill.walk.item"]
    m = {
        "engine.full_walk_s": full_s,
        "engine.full_leaves": leaves,
        "engine.full_leaves_per_s": rate(leaves, full_s),
        "engine.seed_walk_s": seed_s,
        "engine.seeds": seeds,
        "engine.seeds_per_s": rate(seeds, seed_s),
        "engine.fill_walks": fill_walks,
        "engine.fill_walk_s": fill_s,
        "engine.fill_walks_per_s": rate(fill_walks, fill_s),
        "engine.fill_completions": completions,
        "engine.fill_yield": rate(completions, fill_walks),
    }
    pool_s = dur["build_pool@search"]
    seeds_consumed = calls["generate_seeds@search.item"]
    m.update(
        {
            "search.build_pool_s": pool_s,
            "search.pools_built": calls["build_pool@search"],
            "search.pool_candidates": tracer.pool_candidates,
            "search.pool_rows_kept": tracer.pool_rows_kept,
            "search.pool_candidates_per_s": rate(tracer.pool_candidates, pool_s),
            "search.pool_bytes": tracer.pool_bytes,
            "search.join_s": self_time["search@cli"] + self_time["run_sweep@cli"],
            "search.seeds_consumed": seeds_consumed,
            "search.seed_yield": rate(seed_index, seeds_consumed),
            "search.hits": tracer.results,
        }
    )
    check_s = total("verify_tt@enumeration", "is_canonical@enumeration", "encode@enumeration")
    m["enumeration.self_s"] = self_time["enumerate_canonical@cli"]
    m["enumeration.check_s"] = check_s
    per_call = {}
    for attr in ("canonicalize", "orbit", "verify_tt", "is_canonical", "naf_all", "encode", "decode"):
        n_calls, seconds = by_fn(attr)
        per_call[attr] = (n_calls, rate(seconds, n_calls))
    m.update(
        {
            "core.canonicalize_calls": per_call["canonicalize"][0],
            "core.canonicalize_ms": 1e3 * per_call["canonicalize"][1],
            "core.orbit_ms": 1e3 * per_call["orbit"][1],
            "core.orbit_members": rate(tracer.orbit_members, per_call["orbit"][0]),
            "core.verify_tt_calls": per_call["verify_tt"][0],
            "core.verify_tt_us": 1e6 * per_call["verify_tt"][1],
            "core.is_canonical_calls": per_call["is_canonical"][0],
            "core.is_canonical_us": 1e6 * per_call["is_canonical"][1],
            "seqs.naf_all_calls": per_call["naf_all"][0],
            "seqs.naf_all_us": 1e6 * per_call["naf_all"][1],
            "codec.encode_calls": per_call["encode"][0],
            "codec.encode_us": 1e6 * per_call["encode"][1],
            "codec.decode_calls": per_call["decode"][0],
            "codec.decode_us": 1e6 * per_call["decode"][1],
        }
    )
    chain_s = total("tt_to_base@site", "base_to_t@site", "verify_t@site")
    m["constructions.chain_ms"] = 1e3 * rate(chain_s, calls["tt_to_base@site"])
    m["cli.self_s"] = self_time["main@site"]
    return m
