"""Handwritten digit recognition with regional weighted run-length features.

Pipeline: decode and normalize a digit scan to a 64x64 binary image,
extract its contour, compute the 196-dimensional weighted run-length
feature vector, then classify with a one-vs-one SVM or a k-NN baseline.
"""

from .contour import extract_contour
from .dataset import Manifest, scan_dataset, synth_generate
from .errors import RwrlError
from .evaluate import (
    ClassMetrics,
    ConfusionMatrix,
    OverallMetrics,
    class_metrics,
    confusion,
    cross_validate,
    holdout_split,
    overall_metrics,
    stratified_kfold,
)
from .features import (
    DIRECTIONS,
    FEATURE_DIM,
    Direction,
    extract_features,
    read_feature_file,
    scale_features,
    write_feature_file,
)
from .knn import KnnModel, knn_predict_batch, knn_train
from .model_io import model_load, model_save
from .raster import (
    binarize,
    decode_image,
    encode_pgm,
    gaussian_smooth,
    normalize_digit,
    otsu_threshold,
    preprocess_image,
)
from .svm import (
    KernelParams,
    SvmModel,
    kernel_matrix,
    svm_predict_batch,
    svm_train,
)

__version__ = "0.1.0"

__all__ = [
    "ClassMetrics",
    "ConfusionMatrix",
    "Direction",
    "DIRECTIONS",
    "FEATURE_DIM",
    "KernelParams",
    "KnnModel",
    "Manifest",
    "OverallMetrics",
    "RwrlError",
    "SvmModel",
    "binarize",
    "class_metrics",
    "confusion",
    "cross_validate",
    "decode_image",
    "encode_pgm",
    "extract_contour",
    "extract_features",
    "gaussian_smooth",
    "holdout_split",
    "kernel_matrix",
    "knn_predict_batch",
    "knn_train",
    "model_load",
    "model_save",
    "normalize_digit",
    "otsu_threshold",
    "overall_metrics",
    "preprocess_image",
    "read_feature_file",
    "scale_features",
    "scan_dataset",
    "stratified_kfold",
    "svm_predict_batch",
    "svm_train",
    "synth_generate",
    "write_feature_file",
    "__version__",
]
