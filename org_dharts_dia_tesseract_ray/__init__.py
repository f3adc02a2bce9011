"""org_dharts_dia_tesseract_ray — a Ray-Data-native main-content extraction engine.

Brand-new engine with the query/data-processing capabilities of the reference
DART-Services/org.dharts.dia.tesseract (a JNA wrapper around the Tesseract OCR
engine, see /root/reference), re-expressed Ray-Data-first:

* one ``ray.data.Dataset`` per logical table, Arrow blocks throughout,
* the reference's per-document recognition loop (ImageAnalyzerFactory →
  ImageAnalyzer → LayoutIterator/RecognitionResultsIterator) becomes a
  task-pool ``map_batches`` stage (:mod:`.stages.extractor`),
* the cursor algebra (LayoutIterator.java) becomes a flattened ``spans``
  table with character offsets (:mod:`.extract.html_extract`),
* parallelism, retries, backpressure and spilling come from Ray Data's
  streaming executor instead of the reference's per-thread handle discipline.

Nothing here calls ``ray.init``/``ray.shutdown`` — sessions are owned by the
caller (driver, bench.py, or the test fixture).
"""

from .config import ExtractConfig
from .extract.types import BlockType, Level

__all__ = ["ExtractConfig", "BlockType", "Level"]
__version__ = "0.1.0"
