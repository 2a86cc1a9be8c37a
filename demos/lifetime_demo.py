"""Compare network lifetimes under the three scheduling strategies.

Four sensors with 2 J batteries gather data every 30 s; per-period backlogs
are uniform on (0, 1] packets of 30 bits, and the channel noise sits at
-30 dB.  All strategies see identical backlog sequences (counter-based
common random numbers), so the lifetime comparison holds run by run, not
just on average.
"""

import numpy as np

from macfair import NoiseModel, SimConfig, compare_sweep

config = SimConfig(
    n_nodes=4,
    initial_energy=2.0,
    period=30.0,
    packet_bits=30.0,
    noise=NoiseModel.from_db(-30.0),
    runs=200,
    seed=7,
)
lam = 1.0

table = compare_sweep(config, [lam])[lam]
print(f"{config.runs} runs, lambda = {lam} packets, seed = {config.seed}\n")
print(f"{'strategy':10s} {'mean lifetime':>14s} {'std':>7s} "
      f"{'peak power [W]':>15s} {'sum energy [J]':>15s}")
for name, stats in table.stats.items():
    print(f"{name:10s} {stats.mean_lifetime:14.2f} {stats.std_lifetime:7.2f} "
          f"{stats.mean_max_power:15.5f} {stats.mean_sum_energy:15.4f}")

dominant = np.mean(table.lifetimes["minmax"] >= table.lifetimes["minicost"])
gain = (table.stats["minmax"].mean_lifetime
        / table.stats["minicost"].mean_lifetime - 1.0)
print(f"\nmin-max outlives minicost in {dominant:.0%} of runs "
      f"({gain:+.0%} mean lifetime).")
