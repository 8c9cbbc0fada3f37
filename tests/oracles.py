"""Dense reference forms that the fast receiver paths are checked against."""
import numpy as np


def tap_mmse_time(y_time: np.ndarray, taps, n: int, g: float) -> np.ndarray:
    """Time-domain MMSE ``x = H^H (H H^H + g I)^{-1} y`` for a cyclic tap
    channel (ZF at g = 0), with the N x N Gram H H^H filled from its cyclic
    diagonals and one dense solve.
    """
    idx = np.arange(n)
    gram = np.zeros((n, n), dtype=np.complex128)
    for r in taps:
        pr = r.h * np.exp(2j * np.pi * r.k * ((idx - r.l) % n) / n)
        for s in taps:
            ps = np.conj(s.h * np.exp(2j * np.pi * s.k * ((idx - r.l) % n) / n))
            # column where row n of H (at j = n - l_r) meets row m of H:
            # m = n - l_r + l_s (mod N)
            gram[idx, (idx - r.l + s.l) % n] += pr * ps
    gram[idx, idx] += g
    z = np.linalg.solve(gram, y_time)
    x = np.zeros(n, dtype=np.complex128)
    for t in taps:
        x += np.conj(t.h) * np.exp(-2j * np.pi * t.k * idx / n) * z[(idx + t.l) % n]
    return x
