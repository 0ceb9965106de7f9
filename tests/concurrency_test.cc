// Concurrency: the platform serves several sessions at once (§3.4 parallel
// inference; §7.1 production hosting). These tests hammer the thread-safe
// surfaces from many threads; run under TSan for full effect.

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "llmms/app/service.h"
#include "llmms/common/rng.h"
#include "llmms/common/shared_mutex.h"
#include "llmms/embedding/embedding_cache.h"
#include "llmms/llm/batch_scheduler.h"
#include "llmms/rag/pipeline.h"
#include "llmms/vectordb/collection.h"
#include "testutil.h"

namespace llmms {
namespace {

TEST(ConcurrencyTest, ParallelAsksAcrossSessions) {
  auto world = testutil::MakeWorld(4);
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto sessions = std::make_shared<session::SessionStore>();
  core::SearchEngine engine(world.runtime.get(), world.embedder, db, sessions);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      core::SearchEngine::QueryOptions options;
      options.algorithm =
          t % 2 == 0 ? core::Algorithm::kOua : core::Algorithm::kMab;
      for (int i = 0; i < 5; ++i) {
        const auto& item = world.dataset[(t * 5 + i) % world.dataset.size()];
        auto result =
            engine.Ask("session-" + std::to_string(t), item.question, options);
        if (!result.ok() || result->orchestration.answer.empty()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sessions->size(), 8u);
}

// Writers insert, replace ids with new metadata and delete, so slots are
// cleared while readers run Get and filtered queries beside them; every
// record a reader sees must carry its own id's metadata and document.
TEST(ConcurrencyTest, ParallelCollectionUpsertsAndQueries) {
  vectordb::Collection::Options opts;
  opts.dimension = 8;
  opts.index_kind = vectordb::IndexKind::kHnsw;
  vectordb::Collection collection("c", opts);

  constexpr int kWriters = 6;
  constexpr int kRecords = 100;
  auto make_record = [](Rng* rng, const std::string& owner,
                        const std::string& id, int version) {
    vectordb::VectorRecord record;
    record.id = id;
    record.vector.resize(8);
    for (auto& x : record.vector) x = static_cast<float>(rng->Normal());
    record.metadata["owner"] = owner;
    record.metadata["id"] = id;
    record.metadata["version"] = std::to_string(version);
    record.document = id + " v" + std::to_string(version);
    return record;
  };
  // A record is consistent when its metadata and document name its id.
  auto consistent = [](const std::string& id,
                       const vectordb::Metadata& metadata,
                       const std::string& document) {
    auto id_it = metadata.find("id");
    auto version_it = metadata.find("version");
    return metadata.size() == 3 && id_it != metadata.end() &&
           id_it->second == id && version_it != metadata.end() &&
           document == id + " v" + version_it->second;
  };

  std::atomic<int> failures{0};
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(static_cast<uint64_t>(t) + 1);
      const std::string owner = "t" + std::to_string(t);
      auto id_of = [&](int i) { return owner + "-" + std::to_string(i); };
      for (int i = 0; i < kRecords; ++i) {
        if (!collection.Upsert(make_record(&rng, owner, id_of(i), 0)).ok()) {
          ++failures;
        }
        // Replace the previous id with a new vector and new metadata.
        if (i % 4 == 3 &&
            !collection.Upsert(make_record(&rng, owner, id_of(i - 1), 1))
                 .ok()) {
          ++failures;
        }
        // Delete an older id; it is never replaced afterwards.
        if (i % 5 == 4 && !collection.Delete(id_of(i - 2)).ok()) ++failures;
        if (i % 10 == 0) {
          vectordb::Vector query(8, 0.5f);
          if (!collection.Query(query, 3).ok()) ++failures;
        }
      }
      --writers_left;
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r]() {
      Rng rng(static_cast<uint64_t>(r) + 100);
      // Back to back for the writers' whole run: the collection's lock
      // prefers writers, so the readers cannot starve them.
      while (writers_left.load() > 0) {
        const std::string owner =
            "t" + std::to_string(rng.UniformInt(0, kWriters - 1));
        const std::string id =
            owner + "-" + std::to_string(rng.UniformInt(0, kRecords - 1));
        auto record = collection.Get(id);
        if (record.ok()) {
          if (record->id != id || record->vector.size() != 8 ||
              !consistent(id, record->metadata, record->document)) {
            ++failures;
          }
        } else if (!record.status().IsNotFound()) {
          ++failures;
        }
        vectordb::Vector query(8);
        for (auto& x : query) x = static_cast<float>(rng.Normal());
        auto hits = collection.Query(query, 5, {{"owner", owner}});
        if (!hits.ok()) {
          ++failures;
          continue;
        }
        for (const auto& hit : *hits) {
          auto owner_it = hit.metadata.find("owner");
          if (owner_it == hit.metadata.end() || owner_it->second != owner ||
              !consistent(hit.id, hit.metadata, hit.document)) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Each writer deletes 20 of its 100 ids.
  EXPECT_EQ(collection.size(), static_cast<size_t>(kWriters * 80));
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kRecords; ++i) {
      const std::string id = "t" + std::to_string(t) + "-" + std::to_string(i);
      auto record = collection.Get(id);
      const bool deleted = i % 5 == 2 && i + 2 < kRecords;
      ASSERT_EQ(record.ok(), !deleted) << id;
      if (deleted) continue;
      EXPECT_TRUE(consistent(id, record->metadata, record->document)) << id;
      EXPECT_EQ(record->metadata["version"], i % 4 == 2 ? "1" : "0") << id;
    }
  }
}

// A writer queued behind a reader keeps every new reader out, and takes the
// lock as soon as that reader leaves.
TEST(WriterPreferringSharedMutexTest, QueuedWriterBlocksNewReaders) {
  WriterPreferringSharedMutex mu;
  mu.lock_shared();
  std::atomic<bool> writer_ran{false};
  std::thread writer([&]() {
    std::unique_lock<WriterPreferringSharedMutex> lock(mu);
    writer_ran = true;
  });
  // A second reader gets in until the writer queues, and none after.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool queued = false;
  while (!queued && std::chrono::steady_clock::now() < deadline) {
    queued = !mu.try_lock_shared();
    if (!queued) {
      mu.unlock_shared();
      std::this_thread::yield();
    }
  }
  EXPECT_TRUE(queued) << "a reader got in past a waiting writer for 60 s";
  EXPECT_FALSE(mu.try_lock());
  EXPECT_FALSE(writer_ran.load());
  mu.unlock_shared();
  writer.join();
  EXPECT_TRUE(writer_ran.load());
  ASSERT_TRUE(mu.try_lock_shared());
  ASSERT_TRUE(mu.try_lock_shared());
  mu.unlock_shared();
  mu.unlock_shared();
  ASSERT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock_shared());
  mu.unlock();
}

// Two readers loop Get and a filtered Query with no pause, so their shared
// holds overlap, while one writer upserts 200 records. Collection's lock
// prefers writers, so each upsert waits only for the reads in progress
// (QueuedWriterBlocksNewReaders pins that property). This case checks that
// the readers and the writer all finish, with consistent reads. A path that
// took the lock shared twice on one thread would hang here once a writer
// queued between the two holds; a writer held off for kPatience fails.
TEST(ConcurrencyTest, NonYieldingReadersDoNotStarveAWriter) {
  vectordb::Collection::Options opts;
  opts.dimension = 8;
  opts.index_kind = vectordb::IndexKind::kHnsw;
  vectordb::Collection collection("c", opts);

  constexpr int kPreloaded = 40;
  constexpr int kUpserts = 200;
  constexpr auto kPatience = std::chrono::seconds(20);
  auto owner_of = [](int i) { return i % 2 == 0 ? "even" : "odd"; };
  auto id_of = [](int i) {
    std::string id = "r";
    id += std::to_string(i);
    return id;
  };
  auto make_record = [&](Rng* rng, int i) {
    vectordb::VectorRecord record;
    record.id = id_of(i);
    record.vector.resize(8);
    for (auto& x : record.vector) x = static_cast<float>(rng->Normal());
    record.metadata["owner"] = owner_of(i);
    record.document = record.id;
    return record;
  };
  Rng writer_rng(3);
  for (int i = 0; i < kPreloaded; ++i) {
    ASSERT_TRUE(collection.Upsert(make_record(&writer_rng, i)).ok());
  }

  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};
  std::atomic<bool> gave_up{false};
  const auto deadline = std::chrono::steady_clock::now() + kPatience;
  std::thread writer([&]() {
    for (int i = kPreloaded; i < kPreloaded + kUpserts; ++i) {
      if (!collection.Upsert(make_record(&writer_rng, i)).ok()) ++failures;
    }
    writer_done = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r]() {
      Rng rng(static_cast<uint64_t>(r) + 50);
      const std::string owner = owner_of(r);
      while (!writer_done.load()) {
        if (std::chrono::steady_clock::now() > deadline) {
          gave_up = true;
          return;
        }
        const int i = rng.UniformInt(0, kPreloaded + kUpserts - 1);
        auto record = collection.Get(id_of(i));
        if (record.ok() ? record->metadata["owner"] != owner_of(i)
                        : !record.status().IsNotFound()) {
          ++failures;
        }
        vectordb::Vector query(8);
        for (auto& x : query) x = static_cast<float>(rng.Normal());
        auto hits = collection.Query(query, 5, {{"owner", owner}});
        if (!hits.ok()) {
          ++failures;
          continue;
        }
        for (const auto& hit : *hits) {
          if (hit.metadata.at("owner") != owner) ++failures;
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(gave_up.load()) << "the writer was starved for "
                               << kPatience.count() << " s";
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(collection.size(), static_cast<size_t>(kPreloaded + kUpserts));
}

// The HTTP server serves /api/upload on several workers, so two uploads can
// land in one session's document store at once.
TEST(ConcurrencyTest, ParallelUploadsIntoOnePipeline) {
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto pipeline = rag::RagPipeline::Create(
      db, std::make_shared<embedding::HashEmbedder>(), "uploads");
  ASSERT_TRUE(pipeline.ok());

  constexpr int kThreads = 2;
  constexpr int kUploads = 50;
  std::atomic<int> failures{0};
  std::atomic<size_t> chunks{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kUploads; ++i) {
        const std::string id = "t" + std::to_string(t) + "-" + std::to_string(i);
        std::string text;
        for (int s = 0; s <= i % 12; ++s) {
          text += "Document " + id + " records fact number " +
                  std::to_string(s) + " about the reactor cooling loop. ";
        }
        auto n = (*pipeline)->Upload(id, text);
        if (!n.ok()) {
          ++failures;
        } else {
          chunks += *n;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*pipeline)->document_ids().size(),
            static_cast<size_t>(kThreads * kUploads));
  EXPECT_EQ((*pipeline)->chunk_count(), chunks.load());
}

TEST(ConcurrencyTest, ParallelRegistryMutations) {
  auto world = testutil::MakeWorld(2);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 200; ++i) {
        if (world.registry->List().size() > 10) ++failures;
        (void)world.registry->Contains("llama3:8b");
        auto model = world.registry->Get("mistral:7b");
        if (!model.ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, EmbeddingCacheUnderContention) {
  auto inner = std::make_shared<embedding::HashEmbedder>();
  embedding::EmbeddingCache cache(inner, 32);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 300; ++i) {
        const std::string text =
            "text " + std::to_string((t * 7 + i) % 50);
        const auto cached = cache.Embed(text);
        if (cached != inner->Embed(text)) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 32u);
}

// Four threads resolve interleaved prompts through one knowledge base; more
// distinct prompts than its lookup memo holds, so hits, misses and ring
// overwrites race on the memo's lock.
TEST(ConcurrencyTest, KnowledgeLookupsShareOneMemo) {
  auto world = testutil::MakeWorld(4);
  const llm::KnowledgeBase& knowledge = *world.knowledge;
  constexpr size_t kPrompts = 12;
  std::vector<std::string> prompts;
  std::vector<std::string> expected;
  llm::KnowledgeBase fresh(world.embedder);
  ASSERT_TRUE(fresh.AddAll(world.dataset).ok());
  for (size_t i = 0; i < kPrompts; ++i) {
    prompts.push_back("Question: " + world.dataset[i].question);
    const llm::QaItem* item = fresh.Lookup(prompts.back());
    ASSERT_NE(item, nullptr);
    expected.push_back(item->id);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t i = 0; i < 200; ++i) {
        // Each thread walks the prompts at its own stride, repeating
        // some prompts back to back so that hits interleave with misses.
        const size_t p = (static_cast<size_t>(t) * 5 + i / 2 * (t + 1)) %
                         kPrompts;
        const llm::QaItem* item = knowledge.Lookup(prompts[p]);
        if (item == nullptr || item->id != expected[p]) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, ParallelSessionStoreAccess) {
  session::SessionStore store;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 100; ++i) {
        auto session =
            store.GetOrCreate(std::string("s").append(std::to_string(i % 10)));
        if (!session.ok()) {
          ++failures;
          continue;
        }
        (*session)->Append(session::Role::kUser,
                           "msg " + std::to_string(t * 100 + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.size(), 10u);
}

TEST(ConcurrencyTest, ApiServiceParallelRequests) {
  auto world = testutil::MakeWorld(3);
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto sessions = std::make_shared<session::SessionStore>();
  core::SearchEngine engine(world.runtime.get(), world.embedder, db, sessions);
  app::ApiService service(&engine);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 3; ++i) {
        Json request = Json::MakeObject();
        request.Set("session", "api-" + std::to_string(t));
        request.Set("query",
                    world.dataset[(t + i) % world.dataset.size()].question);
        auto response = service.Handle("/api/query", request);
        if (!response["ok"].AsBool()) ++failures;
        auto health = service.Handle("/api/health", Json::MakeObject());
        if (!health["ok"].AsBool()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// N threads drive whole queries through ONE shared continuous-batching
// scheduler (DESIGN.md §13): every stream of every query competes for the
// same replica slots. All queries must complete, and the scheduler must
// come back to rest with no leaked admissions.
TEST(ConcurrencyTest, SharedSchedulerAcrossConcurrentQueries) {
  auto world = testutil::MakeWorld(4);
  llm::SchedulerConfig config;
  config.replicas_per_model = 2;
  world.runtime->EnableScheduler(config);
  auto db = std::make_shared<vectordb::VectorDatabase>();
  auto sessions = std::make_shared<session::SessionStore>();
  core::SearchEngine engine(world.runtime.get(), world.embedder, db, sessions);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      core::SearchEngine::QueryOptions options;
      options.algorithm =
          t % 2 == 0 ? core::Algorithm::kOua : core::Algorithm::kMab;
      options.token_budget = 256;
      for (int i = 0; i < 3; ++i) {
        const auto& item = world.dataset[(t * 3 + i) % world.dataset.size()];
        auto result = engine.Ask("batched-" + std::to_string(t),
                                 item.question, options);
        if (!result.ok() || result->orchestration.answer.empty()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = world.runtime->scheduler()->stats();
  EXPECT_EQ(stats.runnable, 0u);
  EXPECT_EQ(stats.waiting, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.finished_total, stats.admitted_total);
  EXPECT_GT(stats.dispatches, 0u);
  EXPECT_GT(stats.total_service_tokens, 0u);
}

// Raw Admit/ExecuteChunk/Finish hammer: many threads, two replica classes,
// short random streams, some finished early and some abandoned — the
// retire-while-queued and preemption paths all race here. Gauges must
// return to zero.
TEST(ConcurrencyTest, SchedulerAdmitExecuteFinishHammer) {
  llm::SchedulerConfig config;
  config.replicas_per_model = 2;
  // A decision log small enough that the threads wrap it many times over.
  config.trace_capacity = 16;
  llm::BatchScheduler scheduler(config);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(0xBA7C4ull + t);
      for (int i = 0; i < 40; ++i) {
        llm::BatchScheduler::AdmitOptions options;
        options.model = (t + i) % 2 == 0 ? "alpha" : "beta";
        options.weight = 0.5 + static_cast<double>(rng.NextUint64() % 4);
        options.hedge = rng.NextUint64() % 8 == 0;
        options.tokens_per_second = 8.0;
        const auto id = scheduler.Admit(options);
        const size_t chunks = 1 + rng.NextUint64() % 3;
        for (size_t c = 0; c < chunks; ++c) {
          auto chunk = scheduler.ExecuteChunk(
              id, 8, [&](size_t) -> StatusOr<llm::Chunk> {
                llm::Chunk out;
                out.num_tokens = 8;
                out.done = c + 1 == chunks && rng.NextUint64() % 2 == 0;
                return out;
              });
          if (!chunk.ok()) {
            ++failures;
            break;
          }
          if (chunk->done) break;
        }
        // Abandoned or completed either way: Finish must be idempotent.
        scheduler.Finish(id);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.runnable, 0u);
  EXPECT_EQ(stats.waiting, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.admitted_total, 8u * 40u);
  EXPECT_EQ(stats.finished_total, stats.admitted_total);

  const std::vector<std::string> trace = scheduler.Trace();
  EXPECT_EQ(trace.size(), config.trace_capacity);
  const std::set<std::string> decisions = {"admit",  "grant",  "yield",
                                           "preempt", "finish", "expire"};
  for (const auto& line : trace) {
    EXPECT_EQ(decisions.count(line.substr(0, line.find(' '))), 1u) << line;
  }
}

// Vector search under one writer and many readers (DESIGN.md §15): the
// collection's shared/exclusive lock must give readers torn-free snapshots
// while the writer upserts, replaces, and deletes — and a record published
// before a reader's acquire must be visible to it (monotonic visibility).
TEST(ConcurrencyTest, CollectionReadersWithSingleWriter) {
  vectordb::Collection::Options opts;
  opts.dimension = 8;
  opts.index_kind = vectordb::IndexKind::kFlat;
  vectordb::Collection collection("stress", opts);

  constexpr int kWrites = 600;
  constexpr int kDeleteLag = 64;
  std::atomic<int> published{0};
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};

  std::thread writer([&]() {
    for (int i = 1; i <= kWrites; ++i) {
      // A uniform vector: readers detect torn reads as mixed components.
      const float v = static_cast<float>(i % 97) + 1.0f;
      vectordb::VectorRecord record;
      record.id = "seq-" + std::to_string(i);
      record.vector = vectordb::Vector(8, v);
      if (!collection.Upsert(std::move(record)).ok()) ++failures;
      // The continuously replaced hot record exercises upsert-replace.
      vectordb::VectorRecord hot;
      hot.id = "hot";
      hot.vector = vectordb::Vector(8, v);
      if (!collection.Upsert(std::move(hot)).ok()) ++failures;
      published.store(i, std::memory_order_release);
      if (i > kDeleteLag) {
        const std::string victim = "seq-" + std::to_string(i - kDeleteLag);
        if (!collection.Delete(victim).ok()) ++failures;
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      Rng rng(static_cast<uint64_t>(t) + 100);
      while (!done.load(std::memory_order_acquire)) {
        // Monotonic visibility: a record published before our acquire must
        // be found — unless the writer has since lapped it with a delete
        // (it only deletes ids at least kDeleteLag behind the publish
        // cursor, so a miss with the cursor still close by is a real bug).
        const int p = published.load(std::memory_order_acquire);
        if (p > 0) {
          const std::string id = "seq-" + std::to_string(p);
          if (!collection.Contains(id) &&
              published.load(std::memory_order_acquire) - p < kDeleteLag) {
            ++failures;
          }
        }
        // Torn-read detector: every component of a uniform record must
        // match; a mixture means a reader saw a half-applied upsert.
        auto hot = collection.Get("hot");
        if (hot.ok()) {
          for (float x : hot->vector) {
            if (x != hot->vector[0]) ++failures;
          }
        }
        vectordb::Vector query(8);
        for (auto& x : query) x = static_cast<float>(rng.Normal());
        auto hits = collection.Query(query, 5);
        if (!hits.ok()) {
          ++failures;
        } else {
          for (size_t i = 1; i < hits->size(); ++i) {
            // Hits stay in score order even mid-mutation.
            if ((*hits)[i - 1].score < (*hits)[i].score) ++failures;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  // hot + the last kDeleteLag seq records survive.
  EXPECT_EQ(collection.size(), static_cast<size_t>(kDeleteLag) + 1);
  EXPECT_TRUE(collection.Contains("seq-" + std::to_string(kWrites)));
  EXPECT_FALSE(collection.Contains("seq-1"));
}

}  // namespace
}  // namespace llmms
