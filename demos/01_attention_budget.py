"""Where the sub-quadratic budget comes from.

Walks through the three attention kinds and their exact score counts: banded
local attention (N*w-ish), full attention over M segments (M^2), and
token-segment cross-attention (N*M). The counts printed here are the same
numbers the OpCounter measures during a real forward pass.
"""

import numpy as np

from tdt import band_popcount, count_budget

print("The window-4 band over 9 tokens (# = admitted: |i - j| <= 4/2):")
i, j = np.indices((9, 9))
mask = abs(i - j) <= 2
for row in mask:
    print("   ", "".join("#" if v else "." for v in row))
print("    admitted pairs:", mask.sum(), "= band_popcount:", band_popcount(9, 4))

print("\nPer-head, one layer of each attention kind at N=9, w=4, M=2:")
b = count_budget(9, 4, 2)
print(f"    local={b.local}  segment={b.segment}  cross={b.cross}")

print("\nHow the budget scales (w=64, kernel 32 / stride 24 so M ~ N/24):")
print(f"    {'N':>6} {'local':>12} {'segment':>10} {'cross':>12} {'full N^2':>14}")
for n in (1024, 2048, 4096, 8192):
    m = (n - 32) // 24 + (1 if (n - 32) % 24 else 0) + 1 if n > 32 else 1
    bud = count_budget(n, 64, m)
    print(f"    {n:>6} {bud.local:>12} {bud.segment:>10} {bud.cross:>12} {n*n:>14}")

n, w, m = 8192, 1024, 341
bud = count_budget(n, w, m)
print(f"\nAt N={n}, w={w}, M={m}: banded scores are "
      f"{bud.local / (n * n):.1%} of the dense N^2 count.")
