"""Single-step sample erasure for linear and small MLP classifiers.

Removes the influence of chosen training samples from a fitted model in
one closed-form parameter update, using a block-diagonal inverse
empirical Fisher information matrix built from Cholesky factors. Ships the
training loop, erasure baselines, evaluation metrics, and synthetic
data generators used to exercise them.

The namespace is lazy (PEP 562): ``import ssse`` loads no submodule, and
the first use of a public name, or of a submodule such as ``ssse.models``,
imports the submodule that owns it. A process that only erases never
loads the evaluation code.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it owns
_EXPORTS = {
    "data": """RemovalSpec SplitSet build_splits load_csv make_attributes make_blobs
        make_gaussian_classes make_ids save_csv""",
    "erasure": """ErasureRequest diag_scrub_update gradient_ascent_step influence_update
        ssse_update""",
    "errors": "ContainerError InputError NumericError SsseError StaleFisherError TrainingError",
    "evaluation": """EvalReport GridSpec SplitData SweepResult accuracy auc_per_attribute
        boundary_disagreement confusion_distance confusion_matrix epsilon_sweep
        evaluate_erasure mean_loss normalized_confusion_distance normalized_param_distance
        roc_auc similarity_ratio sweep_csv_text sweep_report_text""",
    "fisher": """BlockSpec InverseFisher apply_inverse build_inverse_fisher
        diagonal_inverse_fisher load_inverse_fisher save_inverse_fisher
        sherman_morrison_step""",
    "models": """Dataset LossConfig MLP ModelParams MultiAttrLinear MultinomialLinear Shape
        grad_matrix grad_mean grad_sum hessian_dense loss onehot params_digest
        predict_labels predict_proba""",
    "training": "TrainConfig TrainResult init_params load_model retrain_scratch save_model train",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "_container", "_splitmix"})

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
