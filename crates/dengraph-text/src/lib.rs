//! Keyword-extraction substrate for `dengraph`.
//!
//! The event-detection pipeline of Agarwal et al. (VLDB 2012) operates on
//! *keywords*, not raw message text: every microblog message is reduced to a
//! set of normalised, stop-word-free keywords before it touches the
//! correlated-keyword graph.  This crate provides that reduction:
//!
//! * [`tokenizer`] — splits raw message text into candidate tokens borrowed
//!   from it, handling URLs, mentions, hashtags and punctuation.
//! * [`stopwords`] — an embedded English stop-word list (the paper removes
//!   stop words before building the graph).
//! * [`stemmer`] — a light suffix-stripping normaliser so that trivially
//!   inflected forms ("earthquakes" / "earthquake") map to one node.
//! * [`pos`] — a noun heuristic used by the evaluation's precision filter
//!   ("a real event must contain at least one noun keyword", Section 7.2.2).
//! * [`interner`] — a [`KeywordId`] ↔ string interner; all graph structures
//!   work on compact integer ids.
//! * [`pipeline`] — the end-to-end `text → Vec<KeywordId>` convenience layer.
//!
//! # Example
//!
//! ```
//! use dengraph_text::pipeline::KeywordPipeline;
//!
//! let mut pipeline = KeywordPipeline::new();
//! let ids = pipeline.process("Massive earthquake struck eastern Turkey!");
//! let words: Vec<&str> = ids
//!     .iter()
//!     .map(|id| pipeline.interner().resolve(*id).unwrap())
//!     .collect();
//! assert!(words.contains(&"earthquake"));
//! assert!(words.contains(&"turkey"));
//! // stop-word-like tokens are gone
//! assert!(!words.contains(&"the"));
//! ```

pub mod interner;
pub mod pipeline;
pub mod pos;
pub mod stemmer;
pub mod stopwords;
pub mod tokenizer;

pub use interner::{KeywordId, KeywordInterner, SymbolTable, UserInterner, UserSym};
pub use pipeline::{KeywordPipeline, PipelineConfig};
pub use pos::{NounHeuristic, WordClass};
pub use tokenizer::{tokenize, Token, TokenKind, Tokens};
