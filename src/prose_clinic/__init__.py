"""prose-clinic: locate surface writing symptoms in a manuscript and infer
the maladies behind them."""

__version__ = "0.1.0"

from .config import AnalysisConfig, ConfigError, load_config, parse_config_text
from .detectors import REGISTRY, RULE_IDS, RULES, Diagnostic, Rule, Severity, run_all
from .document import (Document, DocumentStructureError, Footnote, Paragraph, Section, Sentence,
                       Span, Token, parse_document, tokenize)
from .lexicon import Lexicon, LexiconError, default_lexicon, load_lexicon_extensions, stem
from .maladies import (EvidenceRef, MaladyFinding, MaladyKind, extract_keywords, infer_maladies,
                       section_relevance)
from .reporting import Report, build_report, parse_machine, render_human, render_machine

__all__ = [
    "__version__",
    "AnalysisConfig",
    "ConfigError",
    "Diagnostic",
    "Document",
    "DocumentStructureError",
    "EvidenceRef",
    "Footnote",
    "Lexicon",
    "LexiconError",
    "MaladyFinding",
    "MaladyKind",
    "Paragraph",
    "Report",
    "REGISTRY",
    "RULES",
    "RULE_IDS",
    "Rule",
    "Section",
    "Sentence",
    "Severity",
    "Span",
    "Token",
    "build_report",
    "default_lexicon",
    "extract_keywords",
    "infer_maladies",
    "load_config",
    "load_lexicon_extensions",
    "parse_config_text",
    "parse_document",
    "parse_machine",
    "render_human",
    "render_machine",
    "run_all",
    "section_relevance",
    "stem",
    "tokenize",
]
