"""Character-level Chinese NER with neighbor-matched lexicon words.

Pipeline: a trainable character table feeds a bidirectional GRU; each
character receives the dictionary words matched by its immediate
neighbors, fused by attention against the sentence-level context vector;
a linear-chain CRF scores tag sequences and Viterbi decodes them.
"""

from .corpus import (Dataset, EmbeddingTable, Sentence, TagScheme,
                     build_char_vocab, load_embeddings, read_conll,
                     uniform_bound, write_conll)
from .crf import TagLattice, log_partition, marginals, nll, score_sequence, viterbi
from .diagnostics import end_to_end_grad_check
from .evaluation import (EntitySpan, bucket_by_length, evaluation_report,
                         extract_entities, per_type_prf1, prf1, spans_to_tags)
from .lexicon import (Lexicon, MatchSets, build_lexicon, knowledge_select,
                      match_sentence)
from .model import (SentenceInputs, batch_loss, decode_sentence, init_params,
                    prepare_sentence, prepare_sentences, sentence_loss, tag_sentences)
from .params import ParamStore
from .synthetic import make_synthetic_corpus
from .trainer import Checkpoint, TrainConfig, TrainResult, adam_step, evaluate, restore, train

__version__ = "0.1.0"
