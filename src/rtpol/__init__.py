"""Polarization analytics for retweet networks.

Builds directed weighted retweet graphs, scores accounts on a media
preference axis from followership data, detects communities by directed
modularity and by the two-level map equation, and quantifies polarization
with centralities, dyad assortativity, and tweet-content statistics.
"""

__version__ = "0.1.0"

from .errors import (AnchorError, ConvergenceError, DegenerateInputError,
                     InputError, RtpolError, StageError)
from .graph import (EdgeRecord, RetweetGraph, build_graph, induced_subgraph,
                    largest_weak_component)
from .pca import (FollowershipMatrix, MediaLoadings, MediaScores,
                  first_principal_component, node_score_array, score_accounts)
from .centrality import (CentralityScores, PageRankParams, degree_scores,
                         hits, modular_degree_ratio, pagerank,
                         stationary_visit_rates, top_k)
from .community import (DEFAULT_GAMMA_GRID, CommunityProfile,
                        MapEquationParams, ModularityParams, Partition,
                        community_profiles, infomap, louvain, map_equation,
                        modularity, resolution_sweep, shannon_diversity)
from .polarization import (AssortativityReport, MixingMatrix,
                           PermutationResult, assortativity_r,
                           assortativity_report, classes_from_scores,
                           dyad_correlation, mixing_matrix, permutation_test)
from .text import (ChiSquareRow, CorpusScan, TweetRecord, UniqueStats,
                   WordCountTable, chi_square, hashtag_top_per_community,
                   keyword_subset, remove_stopwords, scan_corpus, tokenize,
                   unique_fraction, word_counts_by_class)
from .synth import SyntheticSpec, bloc_labels, generate_bundle, planted_edges
from .pipeline import PipelineConfig, load_config, run_report
