"""EASE reproduction: ML-based edge-partitioner selection for distributed
graph processing (ICDE 2023).

Subpackages
-----------
``repro.graph``
    Graph data structure, property computation and edge-list I/O.
``repro.generators``
    R-MAT, Barabási–Albert, Erdős–Rényi and real-world-like graph generators,
    plus the training-corpus grids of Tables I and II.
``repro.partitioning``
    The eleven edge partitioners evaluated in the paper and the partitioning
    quality metrics.
``repro.processing``
    A distributed graph processing simulator (Pregel-style engine + cost
    model) and the graph algorithms of the evaluation.
``repro.ml``
    From-scratch machine-learning library (the predictors' regressors,
    preprocessing, metrics).  The model-family comparison's SVR, kNN, MLP
    and model selection are imported by module path (``repro.ml.svr`` ...).
``repro.ease``
    The EASE system itself: feature extraction, profiling, the three
    predictors and the automatic partitioner selector.  The Section IV-C
    model-family comparison lives in ``repro.ease.training`` and is not
    re-exported.
``repro.runtime``, ``repro.serving``
    The offline profiling runtime (``repro profile`` / ``repro worker``) and
    the online selection service (``repro serve``).

Import graph
------------
This package re-exports nothing: import from the subpackage that owns a
name.  ``repro.graph``, ``repro.partitioning``, ``repro.processing``,
``repro.ease`` and ``repro.serving`` resolve their names on first access
(:mod:`repro._lazy`), and the partitioner registry imports a partitioner's
module when it first builds one.  Serving and prediction modules never
import the profiling runtime, profiling or the generators, so a ``repro
serve`` process loads only the modules that serving runs
(``docs/ARCHITECTURE.md`` § Import graph).
"""

__version__ = "1.0.0"
