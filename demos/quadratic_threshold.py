"""Rebuilding a degree-2 threshold function from its correlations alone.

The degree-2 Chow parameters of sign(q(x)) determine it uniquely, and a
descent over clipped polynomials recovers a bounded function with
matching correlations: each round compares the target Chow vector to
that of the current clipped iterate and takes a half-step along the
gap, with coefficients kept on a fixed grid. The sign of the result is
the learned hypothesis. The Chow oracle the descent queries draws one
clean sample and lets the adversary corrupt it anew for every query, so
the whole loop runs at the same noise level as the original estimate.
"""

import numpy as np

from robustchow import (AdversaryStrategy, FilterParams, chow_reconstruct,
                        corrupt, default_xi, gaussian_descriptor,
                        make_sampling_oracle, plant_instance, robust_chow,
                        score)
from robustchow.polybasis import Polynomial
from robustchow.ptf_learner import PTF

N, M = 8, 100_000

for eps in (0.0, 0.05):
    dist = gaussian_descriptor(N, 2, eps)
    strategy = (AdversaryStrategy("none") if eps == 0.0
                else AdversaryStrategy("chow_attack", rho=0.9))

    # plant sign(x1^2 - 1): positive far from the slab |x1| < 1
    coeffs = np.zeros(dist.basis.ell)
    coeffs[0] = -1.0
    exp = np.zeros(N, dtype=np.int64)
    exp[0] = 2
    coeffs[dist.basis.index_of(tuple(exp))] = 1.0
    plant = PTF(Polynomial(dist.basis, coeffs))

    hyp, clean = plant_instance("ptf", plant, dist, M, seed=21)
    bad = corrupt(clean, hyp, eps, strategy, dist, seed=22)

    target = robust_chow(bad, dist, FilterParams(eps=eps))
    xi = default_xi(dist, eps, M,
                    achieved_excess=target.provenance["final_lambda"])
    oracle = make_sampling_oracle(dist, eps, strategy, M, seed=23)
    pbf = chow_reconstruct(target, dist, xi, oracle)
    learned = PTF(pbf.q)

    dis = score(learned, hyp, dist, 200_000, seed=24)
    prov = pbf.provenance
    print(f"eps={eps}: grid xi={xi:.4f}, {prov['iterations']} descent rounds, "
          f"final residual {prov['final_residual']:.4f}, "
          f"disagreement {dis:.4f}")
