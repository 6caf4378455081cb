"""Unit-selection engine for monophonic symbolic melodies.

Builds a library of 1/2/4-measure units from a corpus, learns unit
embeddings (an autoencoder for reconstruction, a twin-tower relevance
model for succession) and a note-level LSTM for join costs, then
reconstructs and generates music by ranking and concatenating library
units. See README.md for the pipeline walkthrough.
"""

from .music import (
    REST,
    REST_CLASS,
    Measure,
    Note,
    Piece,
    Provenance,
    Unit,
    assemble_piece,
    concatenate_units,
    measure_sum,
    pitch_class,
    slice_units,
    validate_piece,
)
from .corpus import (
    ArchiveError,
    Corpus,
    CorpusFormatError,
    CorpusValidationError,
    ModelArchive,
    load_corpus,
    load_library,
    load_model,
    save_corpus,
    save_library,
    save_model,
    split_corpus,
)
from .augment import (
    AugmentConfig,
    UnitLibrary,
    build_library,
    double_time,
    interval_transform,
    transpose,
    transpose_corpus,
)
from .features import FeatureVocabulary, build_vocab, extract
from .nn import TrainConfig, grad_check, stream_rng
from .autoencoder import (
    AutoencoderModel,
    EmbeddedLibrary,
    collision_rate,
    embed_library,
    interpolate,
    rank_at_50,
    reconstruct,
    select_nearest,
    train_autoencoder,
)
from .dssm import DssmModel, make_training_pairs, train_dssm
from .lm import (
    LmModel,
    NoteVocabulary,
    build_note_vocab,
    note_distribution,
    tokenize,
    train_lm,
)
from .engine import (
    GenerationConfig,
    RankedCandidate,
    generate,
    generate_note_level,
    rank_candidates,
)
from .evaluation import RankingRow, next_unit_ranking, report

__version__ = "0.1.0"


_MODEL_CLASSES = {cls.kind: cls for cls in (AutoencoderModel, DssmModel, LmModel)}


def load_trained(path, kind=None):
    """Load a model archive and instantiate the matching model class.

    With ``kind`` given, an archive of another kind is rejected. Every
    unreadable, malformed or mismatched archive raises ArchiveError.
    """
    archive = load_model(path)
    try:
        return _MODEL_CLASSES[kind or archive.kind].from_archive(archive)
    except ArchiveError as exc:
        raise ArchiveError(f"{path}: {exc}") from exc
