from .api import DEFAULT_CONFIG, extract_batch, extract_one, sniff_kind
from .types import BlockType, ExtractResult, Level, PayloadKind, Span

__all__ = [
    "extract_batch", "extract_one", "sniff_kind", "DEFAULT_CONFIG",
    "BlockType", "ExtractResult", "Level", "PayloadKind", "Span",
]
