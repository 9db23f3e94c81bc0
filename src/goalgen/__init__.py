"""Toolkit for predicting goal generalisation of sequentially trained RL agents.

The pieces fit together like this: the maze environment and desk agent
generate empirical preference data over object pairs; the Elo module
checks that those preferences are coherent and summarises them as scores;
the latent module simulates how training pipelines shape latent weights
that predict preferences; the fitting module tunes that simulation's
hyperparameters against the data; and the harness/CLI run the evaluation
protocols end to end.
"""

from .dataset import (
    ChoiceDistribution,
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    TrainingStage,
    load_dataset,
    save_dataset,
)
from .errors import NumericalError, ValidationError
from .features import (
    FEATURE_NAMES,
    Colour,
    ObjectFeatures,
    Shape,
    encode_features,
    enumerate_eval_pairs,
    enumerate_objects,
    enumerate_training_goals,
)
from .fitting import FitConfig, FitResult, ModelVariant, fit_hyperparameters
from .latent import (
    LpgHyperparameters,
    SaliencyVariant,
    equilibrium_projection,
    goal_value,
    identity_hyperparameters,
    predict_preferences,
    similarity_metric,
    simulate_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "ChoiceDistribution",
    "Colour",
    "Dataset",
    "FEATURE_NAMES",
    "FitConfig",
    "FitResult",
    "LpgHyperparameters",
    "ModelVariant",
    "NumericalError",
    "ObjectFeatures",
    "PreferenceRecord",
    "SaliencyVariant",
    "Shape",
    "TrainingPipeline",
    "TrainingStage",
    "ValidationError",
    "encode_features",
    "enumerate_eval_pairs",
    "enumerate_objects",
    "enumerate_training_goals",
    "equilibrium_projection",
    "fit_hyperparameters",
    "goal_value",
    "identity_hyperparameters",
    "load_dataset",
    "predict_preferences",
    "save_dataset",
    "similarity_metric",
    "simulate_pipeline",
    "__version__",
]
