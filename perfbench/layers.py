"""Which robustchow functions are traced, and the per-layer metrics read
from their spans.

Layers are the modules. `harness` and `cli` only compose the same calls and
`errors` does no work, so they are not layers here. Spans sit around calls
into each module's public functions; splitting `robust_chow` into its Gram,
eigen and cut stages would need spans inside the program.
"""

from __future__ import annotations

from robustchow import (adversary, chowfilter, distributions, hypothesis_select,
                        intersection_learner, ltf_learner, polybasis, ptf_learner)


def _robust_chow_counts(est, args):
    prov = est.provenance
    return {"rows_in": prov["samples_in"], "iterations": prov["iterations"],
            "removed": prov["pruned"] + prov["filtered"],
            "degraded": int(prov["degraded"]), "cap_reached": int(prov["cap_reached"])}


def _reconstruct_counts(pbf, args):
    prov = pbf.provenance
    return {"iterations": prov["iterations"], "stalled": int(prov["stalled"]),
            "cap_reached": int(prov["cap_reached"])}


def _cover_select_counts(result, args):
    grid = args["unit_matrix"].shape[0]
    return {"candidates": grid ** args["k"] + 2, "rows": len(args["holdout"])}


# (module, function, span name, counts(result, arguments) or None)
TRACED = (
    (polybasis, "eval_monomials_batch", "polybasis.featurize",
     lambda out, a: {"rows": out.shape[0], "single_row_calls": int(out.shape[0] == 1),
                     "entries": out.size}),
    (distributions, "sample", "distributions.sample",
     lambda out, a: {"rows": out.shape[0]}),
    (distributions, "gaussian_descriptor", "distributions.gaussian_descriptor", None),
    (adversary, "corrupt", "adversary.corrupt", lambda out, a: {"rows": len(out)}),
    (chowfilter, "prune_mask", "chowfilter.prune_mask", None),
    (chowfilter, "robust_chow", "chowfilter.robust_chow", _robust_chow_counts),
    (ptf_learner, "chow_reconstruct", "ptf_learner.chow_reconstruct", _reconstruct_counts),
    (ltf_learner, "weak_learn_ltf", "ltf_learner.weak_learn_ltf", None),
    (ltf_learner, "refine_moderate", "ltf_learner.refine_moderate", None),
    (ltf_learner, "refine_extreme", "ltf_learner.refine_extreme", None),
    (intersection_learner, "extract_subspace", "intersection_learner.extract_subspace",
     lambda sub, a: {"dim": sub.dim}),
    (intersection_learner, "make_cover", "intersection_learner.make_cover",
     lambda cover, a: {"grid": cover.grid_size, "candidates": len(cover)}),
    (hypothesis_select, "select_intersection_cover",
     "hypothesis_select.select_intersection_cover", _cover_select_counts),
    (hypothesis_select, "select", "hypothesis_select.select",
     lambda out, a: {"candidates": len(a["candidates"])}),
)


def instrument(tracer, traced: bool):
    """Count oracle draws always; with traced=True also wrap every layer."""
    make_oracle = ptf_learner.make_sampling_oracle

    def make_counted_oracle(dist, eps, strategy, m_per_call, seed, **kwargs):
        oracle = make_oracle(dist, eps, strategy, m_per_call, seed, **kwargs)

        def counted(pbf):
            tracer.draws += m_per_call
            return oracle(pbf)
        return tracer.traced(counted, "ptf_learner.oracle")

    tracer.rebind(make_oracle, make_counted_oracle)
    if traced:
        for module, attr, name, counts in TRACED:
            tracer.wrap(module, attr, name, counts)


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metric -> unit. A metric reads the per-call span total of the
# same key unless DERIVED computes it.
PER_LAYER = {
    "polybasis.featurize.calls": "count",
    "polybasis.featurize.single_row_calls": "count",
    "polybasis.featurize.rows": "rows",
    "polybasis.featurize.entries": "count",
    "polybasis.featurize.self_s": "s",
    "distributions.sample.calls": "count",
    "distributions.sample.rows": "rows",
    "distributions.sample.self_s": "s",
    "distributions.gaussian_descriptor.calls": "count",
    "distributions.gaussian_descriptor.self_s": "s",
    "adversary.corrupt.calls": "count",
    "adversary.corrupt.rows": "rows",
    "adversary.corrupt.self_s": "s",
    "chowfilter.prune_mask.calls": "count",
    "chowfilter.prune_mask.self_s": "s",
    "chowfilter.robust_chow.calls": "count",
    "chowfilter.robust_chow.self_s": "s",
    "chowfilter.robust_chow.rows_in": "rows",
    "chowfilter.robust_chow.iterations": "count",
    "chowfilter.robust_chow.removed_frac": "ratio",
    "chowfilter.robust_chow.degraded": "count",
    "chowfilter.robust_chow.cap_reached": "count",
    "ptf_learner.chow_reconstruct.self_s": "s",
    "ptf_learner.chow_reconstruct.iterations": "count",
    "ptf_learner.chow_reconstruct.stalled": "count",
    "ptf_learner.chow_reconstruct.cap_reached": "count",
    "ptf_learner.oracle.calls": "count",
    "ptf_learner.oracle.self_s": "s",
    "ltf_learner.weak_learn_ltf.self_s": "s",
    "ltf_learner.refine_moderate.calls": "count",
    "ltf_learner.refine_moderate.raised": "count",
    "ltf_learner.refine_moderate.self_s": "s",
    "ltf_learner.refine_extreme.calls": "count",
    "ltf_learner.source.calls": "count",
    "ltf_learner.source.rows": "rows",
    "intersection_learner.subspace_dim": "count",
    "intersection_learner.make_cover.calls": "count",
    "intersection_learner.make_cover.raised": "count",
    "intersection_learner.cover.grid": "count",
    "intersection_learner.cover.candidates": "count",
    "hypothesis_select.select_intersection_cover.self_s": "s",
    "hypothesis_select.select_intersection_cover.candidate_rows_per_s": "1/s",
    "hypothesis_select.select.calls": "count",
    "hypothesis_select.select.candidates": "count",
    "hypothesis_select.select.self_s": "s",
}

DERIVED = {
    "chowfilter.robust_chow.removed_frac":
        lambda t: _ratio(t.get("chowfilter.robust_chow.removed", 0.0),
                         t.get("chowfilter.robust_chow.rows_in", 0.0)),
    "intersection_learner.subspace_dim":
        lambda t: t.get("intersection_learner.extract_subspace.dim", 0.0),
    "intersection_learner.cover.grid":
        lambda t: t.get("intersection_learner.make_cover.grid", 0.0),
    "intersection_learner.cover.candidates":
        lambda t: t.get("intersection_learner.make_cover.candidates", 0.0),
    "hypothesis_select.select_intersection_cover.candidate_rows_per_s":
        lambda t: _ratio(t.get("hypothesis_select.select_intersection_cover.candidates", 0.0)
                         * t.get("hypothesis_select.select_intersection_cover.rows", 0.0),
                         t.get("hypothesis_select.select_intersection_cover.self_s", 0.0)),
}


def layer_values(totals):
    """Per-layer metric values of one traced call; absent spans read 0."""
    return {name: DERIVED[name](totals) if name in DERIVED else totals.get(name, 0.0)
            for name in PER_LAYER}
