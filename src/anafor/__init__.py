"""Knowledge-poor pronoun resolution for annotated Turkish narrative text.

Links overt and zero third-person personal and reflexive pronouns to proper
person names using hard constraints (number agreement, reflexive locality,
personal-pronoun disjointness) and weighted surface preferences, with no
parser or semantic resources involved.
"""

from .textmodel import (
    Document,
    Number,
    Overtness,
    PronounKind,
    PronounMention,
    Sentence,
    Token,
    assemble_document,
)
from .corpus import (
    NameDictionary,
    ParseError,
    load_dictionary,
    parse_document,
    serialize_document,
)
from .morphology import (
    Lexicon,
    NameOccurrence,
    PronounForm,
    classify_pronoun,
    default_lexicon,
    match_name,
    turkish_lower,
    turkish_upper,
)
from .candidates import (
    Candidate,
    CandidateKind,
    SearchScope,
    apply_constraints,
    constrained_candidates,
    extract_candidates,
    generate_sets,
    scan_name_occurrences,
)
from .scoring import (
    DEFAULT_WEIGHTS,
    FEATURE_NAMES,
    PreferenceVector,
    PreferenceWeights,
    feature_vector,
    feature_vectors,
    load_weights,
    parse_weights,
    score,
)
from .resolver import (
    Resolution,
    ResolvedDocument,
    ScoredCandidate,
    baseline_resolve_document,
    format_trace,
    parse_trace,
    resolve_document,
)
from .training import TrainConfig, TrainingInstance, TrainReport, build_instances, train
from .evaluation import Comparison, Metrics, evaluate

__version__ = "0.1.0"
