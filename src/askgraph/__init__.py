"""Graph analytics for semi-anonymous Q&A social networks."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    ContentTable,
    Corpus,
    CorpusStats,
    Lexicon,
    Profile,
    Question,
    TaggedCorpus,
    content_table,
    corpus_stats,
    lexicon_word,
    load_corpus,
    load_lexicon,
    save_corpus,
    tag_corpus,
    tokenize,
)
from .wordgraph import (  # noqa: F401
    BipartiteGraph,
    OneModeGraph,
    WordSet,
    build_bipartite,
    cooccurrence_distribution,
    eigenvector_centrality,
    project_words,
    select_top_words,
    word_neighborhood,
)
from .interaction import (  # noqa: F401
    EdgeCounts,
    InteractionGraph,
    MetricsReport,
    NodeTable,
    build_interaction_graph,
    ccdf,
    clustering,
    compute_metrics,
    degree_ratio_cdf,
    mean_local_clustering_vs_degree,
    mean_reciprocity_by_outdegree,
    node_table,
    reciprocity,
    top_overlaps,
)
from .segmentation import (  # noqa: F401
    GroupReport,
    LabelFile,
    classify_user,
    group_report,
    labeled_report,
    load_label_file,
)
from .synth import (  # noqa: F401
    GenParams,
    SampledCorpus,
    SplitMix64,
    generate_corpus,
    snowball_sample,
    vocab_word_set,
)
