"""Reference channel adaptation that materializes the standardized frames.

``features.blobs_from_windows`` applies each frame's adaptation to
sub-window statistics instead; the tests compare it with this definition:
standardize every frame, then featurize its sub-windows one by one.
"""

import numpy as np

from fiberwatch.framing import running_stats


def adapt_frames(frames: np.ndarray, decay: float, index=np.s_[:, :]) -> np.ndarray:
    """Standardize each frame by its channel's running mean and deviation.

    ``frames`` is (channels, n_frames, frame_size); ``index`` picks entries of
    the (channels, n_frames) grid, and the result keeps the frame axis last.
    A dead frame (running deviation 0 from ``running_stats``) gives zeros.
    """
    mean, sd = running_stats(frames, decay, index)
    live = (sd > 0.0)[..., None]
    return np.where(live, (frames[index] - mean[..., None])
                    / np.where(live, sd[..., None], 1.0), 0.0)
