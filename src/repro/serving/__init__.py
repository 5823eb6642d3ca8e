"""Online selection service: the serving side of EASE.

Once the predictors are trained, partitioner selection is a sub-second model
query — this package keeps trained EASE bundles resident, versioned and
answerable at high request rates.  The stack is four explicit layers (top to
bottom):

* :mod:`repro.serving.frontend` — prefork pool: N forked HTTP worker
  processes accepting from one shared listening socket, model pages
  copy-on-write shared, graph store mmap-shared;
* :mod:`repro.serving.http` — the stdlib HTTP adapter: request framing and
  keep-alive hygiene only, no request semantics;
* :mod:`repro.serving.core` — the transport-agnostic request core: payload
  validation, model routing, admission control (429 + ``Retry-After``
  shedding), response payloads;
* :mod:`repro.serving.router` — N named :class:`SelectionService` instances
  routed by request field/header, sharing one graph-store LRU, with a
  background registry tag watcher rolling out promotes;
* :mod:`repro.serving.service` — the in-process service core: property
  memoization, a bounded admission gate, and a micro-batching queue that
  coalesces concurrent requests into single vectorized predictor calls;

plus :mod:`repro.serving.registry` (content-hashed, versioned model bundles
on disk with tags and training provenance) and
:mod:`repro.serving.client` (a thin retrying client for the HTTP frontend).

Names resolve on first access (:mod:`repro._lazy`), so ``from repro.serving
import SelectionClient`` loads the client and not the service.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".registry": ("ModelRegistry", "ModelVersion", "dataset_fingerprint"),
    ".service": (
        "AdmissionGate",
        "CircuitBreaker",
        "GraphResolver",
        "SelectionService",
        "ServiceStats",
    ),
    ".router": ("ModelRouter", "parse_model_spec"),
    ".core": ("BadRequest", "RequestCore", "Response"),
    ".http": ("SelectionHTTPServer",),
    ".frontend": ("PreforkFrontend",),
    ".client": ("SelectionClient",),
})
