"""Multi-agent retrieval-augmented question answering.

Questions are decomposed into sub-queries, answered in parallel by
vector, graph, and web retrieval agents over a user-supplied corpus,
and arbitrated by consistency voting with expert-model refinement.
"""

from .decision import AnswerCandidate, ConsensusReport, DecisionAgent, bleu, fused_similarity, rouge_l
from .decompose import DecompositionAgent, SubQueryPlan
from .errors import (
    BackendUnavailableError,
    ClassificationParseError,
    ConfigError,
    GatewayError,
    HmragError,
    PipelineError,
    ScriptMismatchError,
    SearchParseError,
)
from .gateway import (
    CallLog,
    ChatTurn,
    DecodingParams,
    HashingEmbeddingBackend,
    HTTPCaptionBackend,
    HTTPChatBackend,
    HTTPEmbeddingBackend,
    ModelBackendConfig,
    ModelGateway,
    ScriptedCaptionBackend,
    ScriptedChatBackend,
)
from .graph_agent import GraphAgent, KeywordSet, Subgraph, expand_one_hop, retrieve_subgraph
from .ingest import (
    Chunk,
    CorpusRecord,
    EmbeddingIndex,
    Entity,
    KnowledgeGraph,
    build_index,
    build_stores,
    caption_and_refine,
    chunk_document,
    extract_graph,
    load_corpus,
)
from .pipeline import Pipeline, PipelineConfig, QueryTrace, run_eval
from .vector_agent import RetrievalResult, ScoredChunk, VectorAgent, score_all
from .web_agent import SearchConfig, SearchResult, SerperSearchClient, StubSearchClient, WebAgent

__version__ = "0.1.0"

__all__ = [
    "AnswerCandidate", "ConsensusReport", "DecisionAgent", "bleu", "fused_similarity", "rouge_l",
    "DecompositionAgent", "SubQueryPlan",
    "BackendUnavailableError", "ClassificationParseError", "ConfigError", "GatewayError",
    "HmragError", "PipelineError", "ScriptMismatchError", "SearchParseError",
    "CallLog", "ChatTurn", "DecodingParams", "HashingEmbeddingBackend", "HTTPCaptionBackend",
    "HTTPChatBackend", "HTTPEmbeddingBackend", "ModelBackendConfig", "ModelGateway",
    "ScriptedCaptionBackend", "ScriptedChatBackend",
    "GraphAgent", "KeywordSet", "Subgraph", "expand_one_hop", "retrieve_subgraph",
    "Chunk", "CorpusRecord", "EmbeddingIndex", "Entity", "KnowledgeGraph", "build_index",
    "build_stores", "caption_and_refine", "chunk_document", "extract_graph", "load_corpus",
    "Pipeline", "PipelineConfig", "QueryTrace", "run_eval",
    "RetrievalResult", "ScoredChunk", "VectorAgent", "score_all",
    "SearchConfig", "SearchResult", "SerperSearchClient", "StubSearchClient", "WebAgent",
    "__version__",
]
