#!/usr/bin/env python3
"""Walk the two-oscillator trichotomy and compare theory against integration.

For each requested ratio lam = 2 Omega / K the script integrates the pair
correlation ODE from a common initial value and prints, side by side, the
predicted and measured quantities that characterize the regime:

  lam < 1   contraction rate sqrt(K^2 - 4 Omega^2), distance limit 2 sin(phi/2)
  lam = 1   algebraic 1/t approach, distance limit sqrt(2)
  lam > 1   orbit period 2 pi / sqrt(4 Omega^2 - K^2), no synchronization

Everything runs at the correlation level, so the whole table takes a second.
"""

import argparse

import numpy as np

from lohe_sync import (
    ModelConfig,
    classify_pair,
    detect_period,
    fit_algebraic_limit,
    fit_rate,
    integrate,
    sync_distance_sq,
    sync_limits_two,
)


def run_point(lam: float, k: float, z0: complex, dt: float, t_end: float):
    omega = 0.5 * lam * k
    config = ModelConfig(coupling=k, frequencies=(omega, -omega))
    regime = classify_pair(k, config.frequencies)
    series = integrate("two", z0, config, dt, t_end, sample_stride=10)
    z = series.z[:, 0, 1]
    dist = np.sqrt(np.maximum(0.0, 2.0 * (1.0 - z.real)))

    if regime.regime == "periodic":
        period = detect_period(series.times, np.abs(z - z[0]))
        return regime, f"T = {regime.period:.4f}", f"T = {period:.4f}"

    limits = sync_limits_two(regime)
    if regime.regime == "critical":
        measured = fit_algebraic_limit(series.times, dist).limit
        return (
            regime,
            f"d = {limits.distance_limit:.4f} (1/t)",
            f"d = {measured:.4f} (extrapolated)",
        )

    tail = float(dist[-(len(dist) // 4) :].mean())
    y = sync_distance_sq(z, regime.phi)
    # stop the fit window before the decay bottoms out at double precision
    # (~35 e-foldings); 14 of them leave a clean straight line
    window = (1.0, min(t_end, 1.0 + 14.0 / regime.rate))
    rate = fit_rate(series.times, np.maximum(y, 1e-300), window=window).rate
    return (
        regime,
        f"mu = {regime.rate:.4f}, d = {limits.distance_limit:.4f}",
        f"mu = {rate:.4f}, d = {tail:.4f}",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--coupling", type=float, default=1.0, help="coupling strength K")
    parser.add_argument("--z0", type=complex, default=0.2 + 0.1j, help="initial correlation")
    parser.add_argument(
        "--lams",
        default="0,0.25,0.5,0.75,0.9,1.0,1.25,1.5,2.0",
        help="comma list of ratios 2 Omega / K to visit",
    )
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--t-end", type=float, default=40.0, dest="t_end")
    args = parser.parse_args(argv)

    lams = [float(v) for v in args.lams.split(",")]
    print(f"K = {args.coupling}, z0 = {args.z0}, t_end = {args.t_end}")
    print(f"{'lam':>5}  {'regime':<18} {'predicted':<32} {'measured':<32}")
    for lam in lams:
        regime, predicted, measured = run_point(
            lam, args.coupling, args.z0, args.dt, args.t_end
        )
        print(f"{lam:>5.2f}  {regime.regime:<18} {predicted:<32} {measured:<32}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
