"""Knowledge-poor pronoun resolution for annotated Turkish narrative text.

Links overt and zero third-person personal and reflexive pronouns to proper
person names using hard constraints (number agreement, reflexive locality,
personal-pronoun disjointness) and weighted surface preferences, with no
parser or semantic resources involved.
"""

from importlib import import_module

_PUBLIC = {  # module -> its public names, each loaded on first access
    "textmodel": "Document Number Overtness PronounKind PronounMention Sentence Token "
                 "assemble_document",
    "corpus": "NameDictionary ParseError load_dictionary parse_document serialize_document",
    "morphology": "Lexicon NameOccurrence PronounForm classify_pronoun default_lexicon "
                  "match_name turkish_lower turkish_upper",
    "candidates": "Candidate CandidateKind SearchScope apply_constraints constrained_candidates "
                  "extract_candidates generate_sets",
    "scoring": "DEFAULT_WEIGHTS FEATURE_NAMES PreferenceVector PreferenceWeights feature_vector "
               "feature_vectors load_weights parse_weights score",
    "resolver": "Resolution ResolvedDocument baseline_resolve_document format_trace "
                "parse_trace resolve_document",
    "training": "TrainConfig TrainingInstance TrainReport build_instances train",
    "evaluation": "Comparison Metrics evaluate",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
