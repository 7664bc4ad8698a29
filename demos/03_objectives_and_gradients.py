"""The objective stack, piece by piece, and the finite-difference check.

total = main + lambda_rrm * rrm + lambda_orm * orm

  main : BPR over fused (behavior-averaged) scores + L2 on base tables
  rrm  : contrastive alignment of auxiliary user embeddings to the target
  orm  : variance of per-behavior BPR risks (or an IRM-style penalty)

Every gradient is hand-derived; `run_gradcheck` compares them against
central finite differences for all variant combinations.
"""

import numpy as np

from mbrobust import main_loss, orm_loss, rrm_loss, run_gradcheck

rng = np.random.default_rng(3)

# --- BPR: push observed items above unobserved ones --------------------------
P = rng.normal(size=(4, 8))
Q = rng.normal(size=(6, 8))
triplets = np.array([[0, 1, 4], [1, 0, 5], [2, 3, 2], [3, 2, 0]])
# main_loss scores BPR on the fused tables (total_loss adds the L2 term on
# the base tables).  It returns the rows each margin reads and the
# derivative per margin, which training scatters onto those rows
risk, (user_rows, item_diffs), d_margin = main_loss(P, Q, triplets)
print(f"BPR loss {risk:.4f}")
for m, g in zip(np.einsum("ij,ij->i", user_rows, item_diffs), d_margin):
    print(f"  margin {m:+.3f}: d(loss)/d(margin) {g:+.4f}")

# --- alignment: anchor auxiliary user embeddings on the target ----------------
# each behavior's rows of the same 4 batch users; the gradients come back as
# the same rows
rows = {"view": rng.normal(size=(4, 8)), "buy": rng.normal(size=(4, 8))}
value, grads = rrm_loss(rows, "buy", tau=0.2)
print(f"alignment loss {value:.4f} "
      f"(with-positive denominator; bounded below by 0)")
value_lit, _ = rrm_loss(rows, "buy", tau=0.2, mode="literal")
print(f"alignment loss {value_lit:.4f} (literal negatives-only denominator)")

# --- invariance: penalize risk spread across behaviors ------------------------
risks = {"view": 0.61, "cart": 0.74, "buy": 0.52}
value, partials = orm_loss(risks, "all_behaviors", "buy")
print(f"risk variance {value:.5f}; partials "
      f"{ {b: round(float(p), 4) for b, p in partials.items()} }")
# equal risks sit at the exact zero of the penalty:
print("equal risks ->", orm_loss({"a": 0.5, "b": 0.5}, "all_behaviors", "b")[0])

# --- the end-to-end check ------------------------------------------------------
# 12 paths = {rex, irm_v1, irm_v2} x {with_positive, literal} x {all, aux_only}
print("\nend-to-end gradient check (analytic vs central differences):")
for r in run_gradcheck(seed=0, sizes=((6, 6, 2),)):
    print(f"  {'PASS' if r.passed else 'FAIL'}  {r.path:45s} "
          f"max_rel_error={r.max_rel_error:.2e}")
