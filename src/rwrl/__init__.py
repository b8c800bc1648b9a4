"""Handwritten digit recognition with regional weighted run-length features.

Pipeline: decode and normalize a digit scan to a 64x64 binary image,
extract its contour, compute the 196-dimensional weighted run-length
feature vector, then classify with a one-vs-one SVM or a k-NN baseline.

Each layer is imported on first use of one of its names (PEP 562), so a
program loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines, each listed once here
_LAYERS = {
    "dataset": ("Manifest", "scan_dataset", "synth_generate"),
    "errors": ("RwrlError",),
    "evaluate": ("ClassMetrics", "ConfusionMatrix", "OverallMetrics",
                 "class_metrics", "confusion", "holdout_split",
                 "overall_metrics", "score_folds", "stratified_kfold"),
    "features": ("extract_contour", "extract_features"),
    "knn": ("KnnModel", "knn_predict_batch", "knn_train"),
    "model_io": ("model_load", "model_save"),
    "raster": ("binarize", "decode_image", "encode_pgm", "gaussian_smooth",
               "ink", "normalize_digit", "otsu_threshold"),
    "reader": ("read_feature_file",),
    "rows": ("scale_features", "write_feature_file"),
    "svm": ("KernelParams", "SvmModel", "kernel_matrix", "svm_predict_batch",
            "svm_train"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}
__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAYERS))
