"""Graph analytics for semi-anonymous Q&A social networks."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    ContentTable, Corpus, CorpusStats, Graph, content_table, corpus_stats, lexicon_word,
    load_corpus, load_lexicon, tokenize,
)
from .wordgraph import (  # noqa: F401
    build_bipartite, cooccurrence_distribution, eigenvector_centrality, project_words,
    select_top_words, word_neighborhood,
)
from .interaction import (  # noqa: F401
    EdgeCounts, MetricsReport, NodeTable, build_interaction_graph, ccdf,
    clustering, compute_metrics, degree_ratio_cdf, mean_local_clustering_vs_degree,
    mean_reciprocity_by_outdegree, node_table, reciprocity, top_overlaps,
)
from .segmentation import (  # noqa: F401
    LabelFile, classify_corpus, group_report, labeled_report, load_label_file,
)
from .synth import (  # noqa: F401
    GenParams, SplitMix64, snowball_sample,
)
