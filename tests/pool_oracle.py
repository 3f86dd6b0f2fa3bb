"""Reference max pool that stacks every window and takes its ``argmax``.

``tensornet._Pool`` records each window's winner from the comparisons of
its two-stage maximum instead; the tests compare it with this definition,
and a network built with ``PoolOracle`` in its place must train to the same
bytes.  Same constructor and layer interface as ``_Pool``.
"""

from functools import reduce

import numpy as np

from fiberwatch.errors import ConfigurationError


class PoolOracle:
    def __init__(self, spec, in_shape):
        c, h, w = in_shape
        self.ph, self.pw = spec.window
        self.out_shape = (c, h // self.ph, w // self.pw)
        if self.out_shape[1] < 1 or self.out_shape[2] < 1:
            raise ConfigurationError(f"pool window {spec.window} exceeds input {in_shape}")
        _, ho, wo = self.out_shape
        # (rows, cols) slices that pick offset k = a*pw + d of every window.
        self.offsets = [(slice(a, ho * self.ph, self.ph), slice(d, wo * self.pw, self.pw))
                        for a in range(self.ph) for d in range(self.pw)]

    def params(self):
        return []

    def forward(self, x, train, rng):
        _, ho, wo = self.out_shape
        hs, ws = ho * self.ph, wo * self.pw
        # Max over each window's columns, then over its rows.
        cols = reduce(np.maximum, [x[:, :, :hs, d:ws:self.pw] for d in range(self.pw)])
        out = reduce(np.maximum, [cols[:, :, a::self.ph] for a in range(self.ph)])
        if not train:
            return out, None
        # argmax picks each window's first maximum in (row, column) order.
        windows = np.stack([x[:, :, r, c] for r, c in self.offsets], axis=-1)
        return out, (np.argmax(windows, axis=-1), x.shape)

    def backward(self, dout, cache):
        idx, x_shape = cache
        dx = np.zeros(x_shape, dtype=dout.dtype)
        for k, (r, c) in enumerate(self.offsets):
            dx[:, :, r, c] = np.where(idx == k, dout, 0)
        return dx, []
