"""Multi-scale line detector for retinal vessel segmentation.

One raster-order two-pass engine produces the combined response map from
one exact integer kernel (``kernel.band_sums``) of window sums and
oriented line-sum maxima. It keeps only per-scale statistics between
passes and runs its datapath in floating point, with exact integer
statistics, or in configurable fixed point. Both entry points hand the
kernel bands of one pixel budget. ``msld_streaming`` is ``stream_pass1``
then ``stream_pass2``; the reference is the float datapath that keeps
every band's sums for the second pass, and gives the same map and
statistics as the streaming engine in float mode.
"""

from .detector import (
    ORIENTATION_COUNT,
    MsldParams,
    line_offsets,
)
from .fixedpoint import FixedPointOverflowError
from .imageio import (
    GrayImage,
    Mask,
    PnmFormatError,
    PnmRows,
    RgbImage,
    extract_inverted_green,
    full_mask,
    load_mask,
    load_pnm,
    open_rows,
    save_pnm,
)
from .metrics import (
    MetricsReport,
    SingleClassRoiError,
    auc,
    best_threshold,
    binarize,
    report_at_threshold,
)
from .reference import (
    EmptyRoiError,
    ResponseMap,
    ScaleStats,
    msld_reference,
    scale_stats,
)
from .streaming import (
    MemoryFootprint,
    StreamAccumulators,
    msld_streaming,
    stream_pass1,
    stream_pass2,
)

__version__ = "0.1.0"
