"""Spectra and block structure of the truncating families.

For the q-Hahn family the recurrence truncates at size N + 1 with spectrum on
the single lattice q**-s; the q-para-Krawtchouk family lives on the bi-lattice
q**-s union c3 * q**(s+1) and its companion pair splits into two invariant
blocks of size (N + 1) / 2.  This script prints verify_spectrum's evidence:
each predicted lattice point in ascending order, the computed eigenvalue paired
with it and their relative distance, and the scaled characteristic polynomial
there; then the block decomposition.

Usage:
    python scripts/finite_spectra.py --family q-para-krawtchouk --N 7 --q 0.6 --c3 0.25
"""

import argparse

from qosc import (
    TolerancePolicy,
    claimed_spectrum,
    companion_b,
    decompose,
    jacobi_matrix,
    q_hahn,
    q_para_krawtchouk,
    verify_spectrum,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=["q-hahn", "q-para-krawtchouk"], default="q-hahn")
    ap.add_argument("--N", type=int, default=5)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--c1", type=float, default=0.3)
    ap.add_argument("--c2", type=float, default=0.4)
    ap.add_argument("--c3", type=float, default=0.2)
    ap.add_argument("--rel-tol", type=float, default=1e-8)
    args = ap.parse_args()

    if args.family == "q-hahn":
        rec = q_hahn(args.c1, args.c2, args.q, args.N)
    else:
        rec = q_para_krawtchouk(args.c3, args.q, args.N)

    spec = claimed_spectrum(rec)
    pol = TolerancePolicy(rel_tol=args.rel_tol)
    report = verify_spectrum(rec, spec, pol)

    print(f"# {args.family}, N={args.N}, q={args.q}, size {rec.size}, kind {spec.kind}")
    print(f"{'computed':>24}  {'predicted':>24}  {'rel dev':>10}  {'charpoly':>10}")
    evidence = zip(report.eigenvalues, report.points, report.rel_distance, report.charpoly_scaled)
    for lam, pt, rel, cp in evidence:
        print(f"{lam:>24.16e}  {pt:>24.16e}  {rel:>10.2e}  {cp:>10.2e}")
    print(f"# pairing residual {report.max_abs:.3e}  (tol {report.tolerance:.1e})"
          f"  -> {'pass' if report.passed else 'FAIL'}")

    A = jacobi_matrix(rec)
    B = companion_b(A, rec.params)
    blocks = decompose(A, B, args.q, pol)
    print(f"# invariant blocks of the companion pair: {len(blocks)}")
    for chain, size in blocks:
        lo, hi = chain[0], chain[-1]
        print(f"#   size {size}, chain {lo:.10g} .. {hi:.10g} (ratio 1/q)")


if __name__ == "__main__":
    main()
