"""Reference kernel for the host's speed, in a process of its own.

Each line read from stdin runs the kernel once and answers with its time in
seconds; end of input ends the process.  The kernel mixes what the workloads
do: scalar interpreter work, small numpy calls, an FFT and a LAPACK solve.
It runs apart from the workload process, so nothing the library does to
that process (heap, caches, plans) changes the reference.
"""

import sys
import time

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(128, 128))
    vec = rng.normal(size=128)
    signal = rng.normal(size=2 ** 16) + 0j
    cmatrix = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    for _ in sys.stdin:
        start = time.perf_counter()
        acc = 0j
        for k in range(1, 3000):
            acc += 1.0 / (complex(k, 1.0) - 0.5)
        for _ in range(20):
            np.roots(vec[:9])
        np.fft.ifft(np.fft.fft(signal))
        np.linalg.solve(matrix, vec)
        np.linalg.solve(cmatrix, cmatrix[0])
        np.linalg.eigvals(cmatrix[:48, :48])
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    main()
