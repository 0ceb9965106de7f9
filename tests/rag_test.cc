#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <tuple>

#include "llmms/common/rng.h"
#include "llmms/common/string_util.h"
#include "llmms/embedding/embedding_cache.h"
#include "llmms/embedding/hash_embedder.h"
#include "llmms/rag/chunker.h"
#include "llmms/rag/document_store.h"
#include "llmms/rag/pipeline.h"
#include "llmms/rag/prompt_builder.h"
#include "llmms/vectordb/database.h"
#include "llmms/vectordb/distance.h"

namespace llmms::rag {
namespace {

std::string RepeatSentences(int n) {
  std::string doc;
  for (int i = 0; i < n; ++i) {
    doc += "Sentence number " + std::to_string(i) +
           " talks about topic " + std::to_string(i % 7) + ". ";
  }
  return doc;
}

TEST(ChunkerTest, EmptyDocumentYieldsNoChunks) {
  Chunker chunker;
  EXPECT_TRUE(chunker.Chunk("").empty());
  EXPECT_TRUE(chunker.Chunk("   \n ").empty());
}

TEST(ChunkerTest, ShortDocumentSingleChunk) {
  Chunker chunker;
  const auto chunks = chunker.Chunk("One sentence. Another sentence.");
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].index, 0u);
  EXPECT_EQ(chunks[0].text, "One sentence. Another sentence.");
}

TEST(ChunkerTest, LongDocumentSplitsNearTarget) {
  Chunker::Options opts;
  opts.target_words = 30;
  opts.max_words = 45;
  opts.overlap_words = 0;
  Chunker chunker(opts);
  const auto chunks = chunker.Chunk(RepeatSentences(40));
  ASSERT_GT(chunks.size(), 3u);
  for (const auto& chunk : chunks) {
    EXPECT_LE(chunk.num_words, opts.max_words);
    EXPECT_GT(chunk.num_words, 0u);
  }
}

TEST(ChunkerTest, ChunksNeverSplitSentences) {
  Chunker::Options opts;
  opts.target_words = 20;
  opts.overlap_words = 0;
  Chunker chunker(opts);
  const auto chunks = chunker.Chunk(RepeatSentences(30));
  for (const auto& chunk : chunks) {
    // Every chunk must end with a sentence terminator.
    EXPECT_EQ(chunk.text.back(), '.');
  }
}

TEST(ChunkerTest, OverlapRepeatsTrailingContext) {
  Chunker::Options opts;
  opts.target_words = 25;
  opts.max_words = 35;
  opts.overlap_words = 8;
  Chunker chunker(opts);
  const auto chunks = chunker.Chunk(RepeatSentences(30));
  ASSERT_GT(chunks.size(), 1u);
  // Some sentence of chunk 0 must reappear in chunk 1.
  const auto first_words = SplitWhitespace(chunks[0].text);
  bool overlap_found = chunks[1].text.find("Sentence number") !=
                       std::string::npos;
  // Stronger: the start word offset of chunk 1 is before the end of chunk 0.
  EXPECT_LT(chunks[1].start_word, chunks[0].start_word + chunks[0].num_words);
  EXPECT_TRUE(overlap_found);
  (void)first_words;
}

TEST(ChunkerTest, CoversWholeDocument) {
  Chunker::Options opts;
  opts.target_words = 25;
  opts.overlap_words = 5;
  Chunker chunker(opts);
  const std::string doc = RepeatSentences(50);
  const auto chunks = chunker.Chunk(doc);
  // Every sentence index 0..49 must appear in some chunk.
  for (int i = 0; i < 50; ++i) {
    const std::string needle = "Sentence number " + std::to_string(i) + " ";
    bool found = false;
    for (const auto& chunk : chunks) {
      found = found || chunk.text.find(needle) != std::string::npos;
    }
    EXPECT_TRUE(found) << "sentence " << i << " missing";
  }
}

class DocumentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    embedder_ = std::make_shared<embedding::HashEmbedder>();
    vectordb::Collection::Options opts;
    opts.dimension = embedder_->dimension();
    opts.index_kind = vectordb::IndexKind::kFlat;
    collection_ = std::make_shared<vectordb::Collection>("docs", opts);
    store_ = std::make_unique<DocumentStore>(collection_, embedder_);
  }

  std::shared_ptr<embedding::HashEmbedder> embedder_;
  std::shared_ptr<vectordb::Collection> collection_;
  std::unique_ptr<DocumentStore> store_;
};

TEST_F(DocumentStoreTest, AddAndRetrieve) {
  auto n = store_->AddDocument(
      "manual",
      "The reactor core temperature must stay below 900 degrees. "
      "Cooling pumps are serviced every three months. "
      "The control room is staffed around the clock.");
  ASSERT_TRUE(n.ok());
  EXPECT_GE(*n, 1u);
  auto hits = store_->Retrieve("what is the maximum reactor temperature", 2);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_NE((*hits)[0].text.find("900 degrees"), std::string::npos);
  EXPECT_EQ((*hits)[0].document_id, "manual");
}

TEST_F(DocumentStoreTest, ValidatesDocumentId) {
  EXPECT_TRUE(store_->AddDocument("", "text").status().IsInvalidArgument());
  EXPECT_TRUE(
      store_->AddDocument("bad#id", "text").status().IsInvalidArgument());
}

TEST_F(DocumentStoreTest, ReAddReplacesChunks) {
  ASSERT_TRUE(store_->AddDocument("d", "Old content about apples.").ok());
  ASSERT_TRUE(store_->AddDocument("d", "New content about oranges.").ok());
  EXPECT_EQ(store_->document_ids().size(), 1u);
  auto hits = store_->Retrieve("apples oranges content", 5);
  ASSERT_TRUE(hits.ok());
  for (const auto& hit : *hits) {
    EXPECT_EQ(hit.text.find("apples"), std::string::npos);
  }
}

TEST_F(DocumentStoreTest, RemoveDocumentDropsChunks) {
  ASSERT_TRUE(store_->AddDocument("a", RepeatSentences(20)).ok());
  ASSERT_TRUE(store_->AddDocument("b", "Unrelated text about rivers.").ok());
  const size_t before = store_->chunk_count();
  ASSERT_TRUE(store_->RemoveDocument("a").ok());
  EXPECT_LT(store_->chunk_count(), before);
  EXPECT_TRUE(store_->RemoveDocument("a").IsNotFound());
  auto hits = store_->Retrieve("topic sentence number", 10);
  ASSERT_TRUE(hits.ok());
  for (const auto& hit : *hits) EXPECT_EQ(hit.document_id, "b");
}

TEST_F(DocumentStoreTest, RetrieveScopedToDocument) {
  ASSERT_TRUE(store_->AddDocument("a", "Rivers flow toward the sea.").ok());
  ASSERT_TRUE(store_->AddDocument("b", "Rivers carve deep canyons.").ok());
  auto hits = store_->Retrieve("rivers", 10, "b");
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  for (const auto& hit : *hits) EXPECT_EQ(hit.document_id, "b");
}

// Chunks are embedded once and kept only in the collection, and a retrieval
// question is embedded for its query only: a store over a cache must leave
// the cache untouched on upload and on retrieval, and still retrieve
// exactly what a store over the bare embedder retrieves.
TEST(DocumentStoreCacheTest, UploadsBypassTheCacheAndHitsAreUnchanged) {
  for (const auto kind :
       {vectordb::IndexKind::kFlat, vectordb::IndexKind::kHnsw}) {
    SCOPED_TRACE(kind == vectordb::IndexKind::kFlat ? "flat" : "hnsw");
    auto bare = std::make_shared<embedding::HashEmbedder>();
    auto cache = std::make_shared<embedding::EmbeddingCache>(bare, 64);
    vectordb::Collection::Options opts;
    opts.dimension = bare->dimension();
    opts.index_kind = kind;
    DocumentStore plain(std::make_shared<vectordb::Collection>("plain", opts),
                        bare);
    DocumentStore cached(std::make_shared<vectordb::Collection>("cached", opts),
                         cache);

    const std::string query = "which topic does sentence number 12 cover";
    cache->Embed(query);  // one cached text the uploads must not disturb
    for (int d = 0; d < 4; ++d) {
      const std::string id = "doc" + std::to_string(d);
      const std::string text = RepeatSentences(30 + 10 * d);
      ASSERT_TRUE(plain.AddDocument(id, text).ok());
      ASSERT_TRUE(cached.AddDocument(id, text).ok());
    }
    ASSERT_TRUE(cached.AddDocument("doc1", RepeatSentences(25)).ok());
    ASSERT_TRUE(plain.AddDocument("doc1", RepeatSentences(25)).ok());
    EXPECT_GT(cached.chunk_count(), cache->size());
    EXPECT_EQ(cache->size(), 1u);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_EQ(cache->hits(), 0u);

    for (const std::string& q : {query, std::string("topic 3 sentence"),
                                std::string("rivers and canyons")}) {
      auto want = plain.Retrieve(q, 5);
      auto got = cached.Retrieve(q, 5);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), want->size());
      for (size_t i = 0; i < want->size(); ++i) {
        EXPECT_EQ((*got)[i].document_id, (*want)[i].document_id);
        EXPECT_EQ((*got)[i].chunk_index, (*want)[i].chunk_index);
        EXPECT_EQ((*got)[i].text, (*want)[i].text);
        const double a = (*got)[i].score;
        const double b = (*want)[i].score;
        EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << a << " vs " << b;
      }
    }
    // Retrieval neither looked the questions up nor stored them, the one
    // cached before the uploads included.
    ASSERT_TRUE(cached.Retrieve("topic 3 sentence", 5).ok());
    EXPECT_EQ(cache->size(), 1u);
    EXPECT_EQ(cache->hits(), 0u);
    EXPECT_EQ(cache->misses(), 1u);
  }
}

TEST(PromptBuilderTest, BareQueryWhenNoContext) {
  PromptBuilder builder;
  EXPECT_EQ(builder.Build("What is X?", {}), "Question: What is X?");
}

TEST(PromptBuilderTest, ContextComesFirstByDefault) {
  PromptBuilder builder;
  RetrievedChunk chunk;
  chunk.text = "X is a kind of Y.";
  const std::string prompt = builder.Build("What is X?", {chunk});
  EXPECT_LT(prompt.find("X is a kind of Y."), prompt.find("Question:"));
  EXPECT_NE(prompt.find("Use the following context"), std::string::npos);
}

TEST(PromptBuilderTest, HistoryIncludedWhenPresent) {
  PromptBuilder builder;
  const std::string prompt =
      builder.Build("What is X?", {}, "user: earlier question");
  EXPECT_NE(prompt.find("Conversation so far:"), std::string::npos);
  EXPECT_NE(prompt.find("earlier question"), std::string::npos);
}

TEST(PromptBuilderTest, ClipsContextToWordBudget) {
  PromptBuilder::Options opts;
  opts.max_context_words = 10;
  PromptBuilder builder(opts);
  RetrievedChunk chunk;
  for (int i = 0; i < 50; ++i) chunk.text += "word" + std::to_string(i) + " ";
  const std::string prompt = builder.Build("q", {chunk});
  EXPECT_NE(prompt.find("word9"), std::string::npos);
  EXPECT_EQ(prompt.find("word10 "), std::string::npos);
}

TEST(PromptBuilderTest, ContextLastWhenConfigured) {
  PromptBuilder::Options opts;
  opts.context_first = false;
  PromptBuilder builder(opts);
  RetrievedChunk chunk;
  chunk.text = "context text";
  const std::string prompt = builder.Build("query", {chunk});
  EXPECT_GT(prompt.find("context text"), prompt.find("Question:"));
}

TEST(RagPipelineTest, EndToEndUploadRetrievePrompt) {
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  auto pipeline = RagPipeline::Create(db, embedder, "s1");
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ((*pipeline)->collection_name(), "session-s1");
  ASSERT_TRUE(db->GetCollection("session-s1").ok());

  auto chunks = (*pipeline)->Upload(
      "notes", "The veltrite mineral turns crimson when heated above 400C.");
  ASSERT_TRUE(chunks.ok());
  auto prompt =
      (*pipeline)->BuildPrompt("what color does veltrite turn when heated");
  ASSERT_TRUE(prompt.ok());
  EXPECT_NE(prompt->find("crimson"), std::string::npos);
  EXPECT_NE(prompt->find("Question:"), std::string::npos);
}

TEST(RagPipelineTest, NoDocumentsMeansBarePrompt) {
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  auto pipeline = RagPipeline::Create(db, embedder, "s2");
  ASSERT_TRUE(pipeline.ok());
  auto prompt = (*pipeline)->BuildPrompt("anything at all");
  ASSERT_TRUE(prompt.ok());
  EXPECT_EQ(*prompt, "Question: anything at all");
}

TEST(RagPipelineTest, IrrelevantChunksFilteredByMinScore) {
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  RagPipeline::Options opts;
  opts.min_score = 0.5;  // strict
  auto pipeline = RagPipeline::Create(db, embedder, "s3", opts);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Upload("doc", "Bananas are yellow fruit.").ok());
  auto chunks = (*pipeline)->Retrieve("quantum chromodynamics lattice gauge");
  ASSERT_TRUE(chunks.ok());
  EXPECT_TRUE(chunks->empty());
}

TEST(RagPipelineTest, ExpireDropsCollection) {
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  auto pipeline = RagPipeline::Create(db, embedder, "s4");
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Expire().ok());
  EXPECT_TRUE(db->GetCollection("session-s4").status().IsNotFound());
}

// A session's collection is scanned exactly: at the size a served session
// reaches (~800 chunks), every retrieval is the exact top-k of the
// session's chunks, in the collection's (score desc, id asc) order and to
// the score bit. An HNSW graph with a kHnsw collection's default settings
// misses some of these hits.
TEST(RagPipelineTest, SessionRetrievalIsTheExactTopK) {
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  RagPipeline::Options opts;
  opts.top_k = 10;
  opts.min_score = -1.0;  // keep every hit
  auto pipeline = RagPipeline::Create(db, embedder, "exact", opts);
  ASSERT_TRUE(pipeline.ok());

  Rng rng(0x5E55);
  auto words = [&rng](int n) {
    std::string text;
    for (int w = 0; w < n; ++w) {
      text.append(" w").append(std::to_string(rng.UniformInt(0, 2999)));
    }
    return text;
  };
  for (int d = 0; (*pipeline)->chunk_count() < 800; ++d) {
    std::string doc;
    for (int s = 0; s < 8; ++s) doc += words(12) + ".";
    ASSERT_TRUE((*pipeline)->Upload("doc" + std::to_string(d), doc).ok());
  }
  auto collection = db->GetCollection("session-exact");
  ASSERT_TRUE(collection.ok());
  std::vector<vectordb::VectorRecord> records;
  for (const std::string& id : (*collection)->Ids()) {
    auto record = (*collection)->Get(id);
    ASSERT_TRUE(record.ok());
    records.push_back(std::move(*record));
  }

  for (int q = 0; q < 200; ++q) {
    const std::string question = words(8);
    const vectordb::Vector query = embedder->EmbedOnce(question);
    std::vector<std::tuple<double, std::string, const vectordb::Metadata*>>
        scan;
    for (const vectordb::VectorRecord& r : records) {
      scan.emplace_back(
          vectordb::Distance(vectordb::DistanceMetric::kCosine, query,
                             r.vector),
          r.id, &r.metadata);
    }
    std::sort(scan.begin(), scan.end());
    auto hits = (*pipeline)->Retrieve(question);
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), opts.top_k);
    for (size_t h = 0; h < hits->size(); ++h) {
      const auto& [distance, id, metadata] = scan[h];
      SCOPED_TRACE(id);
      EXPECT_EQ((*hits)[h].document_id, metadata->at("document_id"));
      EXPECT_EQ(std::to_string((*hits)[h].chunk_index),
                metadata->at("chunk_index"));
      EXPECT_EQ(std::bit_cast<uint64_t>((*hits)[h].score),
                std::bit_cast<uint64_t>(vectordb::SimilarityFromDistance(
                    vectordb::DistanceMetric::kCosine, distance)));
    }
  }
}

TEST(RagPipelineTest, RejectsEmptySessionId) {
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto embedder = std::make_shared<embedding::HashEmbedder>();
  EXPECT_TRUE(
      RagPipeline::Create(db, embedder, "").status().IsInvalidArgument());
}

}  // namespace
}  // namespace llmms::rag
