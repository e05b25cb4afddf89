"""Latent-variable dialogue engine with posterior knowledge selection and
short-run Langevin latent inference."""

from .config import ModelConfig, SpiConfig, config_from_dict, with_overrides
from .errors import ContractError, NumericError, ShapeError, SpiError
from .model import DialogueExample, LatentPair, ModelParams, Vocab
from .inference import (LangevinTrace, SelectionOutcome, langevin_infer_z,
                        select_knowledge_batch, sequential_posterior_infer)
from .training import TrainResult, initializer_ce_step, mle_step, train
from .generation import GenerationResult, generate, generate_batch
from .metrics import (EvalReport, bleu_corpus, distinct_n, evaluate,
                      perplexity, rouge_n, selection_accuracy)
from .data import SyntheticSpec, generate_corpus, load_corpus, save_corpus

__all__ = [
    "ModelConfig", "SpiConfig", "config_from_dict", "with_overrides",
    "ContractError", "NumericError", "ShapeError", "SpiError",
    "DialogueExample", "LatentPair", "ModelParams", "Vocab",
    "LangevinTrace", "SelectionOutcome", "langevin_infer_z",
    "select_knowledge_batch", "sequential_posterior_infer",
    "TrainResult", "initializer_ce_step", "mle_step", "train",
    "GenerationResult", "generate", "generate_batch",
    "EvalReport", "bleu_corpus", "distinct_n", "evaluate", "perplexity",
    "rouge_n", "selection_accuracy",
    "SyntheticSpec", "generate_corpus", "load_corpus", "save_corpus",
]

__version__ = "0.1.0"
