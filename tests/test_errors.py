"""Every reader of a series or sample argument reads it one way
(``errors.sample_rows``): a 1-d array is one column, and an array that is
no non-empty ``(n, d)`` matrix, or one with a non-finite entry where the
reader checks finiteness, raises an error naming the argument."""

import numpy as np
import pytest

from kernelcast import preprocess
from kernelcast.cv import Grid, grid_search, overlapping_folds
from kernelcast.datasets import TimeSeries
from kernelcast.errors import InvalidInputError
from kernelcast.estimators import fit_estimator, fit_task
from kernelcast.forecast import path_continue
from kernelcast.kernels import (VolterraParams, fit_kernel_model,
                                predict_kernel, volterra_gram,
                                volterra_kernel_truncated)
from kernelcast.metrics import (nmse, subsample_rows, valid_time, w1_nd,
                                welch_psd)
from kernelcast.ngrc import delay_vectors, lagged_pairs

# one dimension, inside the Volterra norm ball
X = 0.5 * np.sin(0.3 * np.arange(40.0))
COL = X[:, None]
NGRC = {"tau": 2, "p": 2, "lam_reg": 1e-6}
VOLTERRA = VolterraParams(0.5, 0.4)
EST = fit_task("ngrc", NGRC, (COL,))
VOLTERRA_MODEL = fit_kernel_model(COL[:30], COL[1:31], VOLTERRA, 1e-6)

# (reader, the argument it reads, whether it checks finiteness, a call of
# the reader on that argument whose result the test compares)
READERS = [
    ("TimeSeries", "values", True, lambda x: TimeSeries(x, 0.1).values),
    ("fit_task", "values", False,
     lambda x: fit_task("ngrc", NGRC, (x,)).open_loop(COL, COL)),
    ("fit_estimator-inputs", "inputs", False,
     lambda x: fit_estimator("ngrc", NGRC, x, COL).open_loop(COL, COL)),
    ("fit_estimator-targets", "targets", False,
     lambda x: fit_estimator("ngrc", NGRC, COL, x).open_loop(COL, COL)),
    ("Estimator.open_loop", "test_inputs", False,
     lambda x: EST.open_loop(COL, x)),
    ("Estimator.open_loop-history", "history", False,
     lambda x: EST.open_loop(x, COL)),
    ("Estimator.start", "seed_history", False,
     lambda x: EST.start(x).step()),
    ("path_continue", "seed_history", False,
     lambda x: path_continue(EST, x, 5).predicted),
    ("fit_kernel_model", "inputs", True,
     lambda x: fit_kernel_model(x, COL, VOLTERRA, 1e-6).alpha),
    ("volterra_gram", "inputs", True,
     lambda x: volterra_gram(x, VOLTERRA).values),
    ("volterra_kernel_truncated-a", "seq_a", True,
     lambda x: volterra_kernel_truncated(x, COL[:5], VOLTERRA, 60)),
    ("volterra_kernel_truncated-b", "seq_b", True,
     lambda x: volterra_kernel_truncated(COL[:5], x, VOLTERRA, 60)),
    ("predict_kernel", "new_inputs", True,
     lambda x: predict_kernel(VOLTERRA_MODEL, x)),
    ("preprocess.fit", "train", False,
     lambda x: preprocess.fit("standardize", x).scale),
    ("fit_pipeline", "train", False,
     lambda x: preprocess.fit_pipeline(["demean", "max-norm-scale"],
                                       x)[1].scale),
    ("nmse-y", "y", False, lambda x: nmse(x, COL + 0.1)),
    ("nmse-y_hat", "y_hat", False, lambda x: nmse(COL, x)),
    ("valid_time-reference", "reference", False,
     lambda x: valid_time(x, COL * 1.5, 0.9, 0.1).value),
    ("valid_time-predicted", "predicted", False,
     lambda x: valid_time(COL, x, 0.9, 0.1).value),
    ("welch_psd", "values", False, lambda x: welch_psd(x, 16).power),
    ("w1_nd-a", "samples_a", False, lambda x: w1_nd(x, COL[::-1] + 1.0)),
    ("w1_nd-b", "samples_b", False, lambda x: w1_nd(COL[::-1] + 1.0, x)),
    ("subsample_rows", "values", False, lambda x: subsample_rows(x, 7, 7)),
    ("delay_vectors", "values", False, lambda x: delay_vectors(x, 3)),
    ("lagged_pairs-inputs", "inputs", False,
     lambda x: lagged_pairs(x, COL, 3)[0]),
    ("lagged_pairs-targets", "targets", False,
     lambda x: lagged_pairs(COL, x, 3)[1]),
    ("grid_search", "train", False,
     lambda x: grid_search("ngrc", Grid(taus=[1], ps=[2], lam_regs=[1e-6]),
                           overlapping_folds(40, 20, 5, 10),
                           "path-continuation", (x,)).table[0].fold_mse),
]


@pytest.mark.parametrize("name, finite, call", [r[1:] for r in READERS],
                         ids=[r[0] for r in READERS])
def test_a_sample_argument_is_read_one_way(name, finite, call):
    np.testing.assert_array_equal(call(X), call(COL))
    bad = {"0-row": COL[:0], "3-d": COL[:, :, None]}
    if finite:
        bad["nan"] = np.where(np.arange(40)[:, None] == 3, np.nan, COL)
    for kind, value in bad.items():
        with pytest.raises(InvalidInputError, match=f"^{name} (must|has)"):
            call(value)
