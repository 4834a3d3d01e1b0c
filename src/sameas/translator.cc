#include "sameas/translator.h"

#include <cstddef>
#include <utility>

namespace sofya {

namespace {

// A source id's image word: the image id in bits 0-31, flags above.
constexpr uint64_t kKnown = uint64_t{1} << 32;   // Kind recorded.
constexpr uint64_t kLiteral = uint64_t{1} << 33; // The term is a literal.
constexpr uint64_t kImaged = uint64_t{1} << 34;  // Image id recorded.

uint64_t KindBits(const Term& term) {
  return kKnown | (term.is_literal() ? kLiteral : 0);
}

}  // namespace

/// A word per TermId, zero until set, in chunks allocated on first touch.
template <typename Word>
class CrossKbTranslator::IdArray {
 public:
  IdArray() : chunks_(new std::atomic<Chunk*>[kNumChunks]()) {}
  ~IdArray() {
    for (size_t i = 0; i < kNumChunks; ++i) {
      delete chunks_[i].load(std::memory_order_relaxed);
    }
  }
  IdArray(const IdArray&) = delete;
  IdArray& operator=(const IdArray&) = delete;

  std::atomic<Word>& operator[](TermId id) {
    std::atomic<Chunk*>& entry = chunks_[id >> kChunkBits];
    Chunk* chunk = entry.load(std::memory_order_acquire);
    if (chunk == nullptr) {
      auto fresh = std::make_unique<Chunk>();
      if (entry.compare_exchange_strong(chunk, fresh.get(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        chunk = fresh.release();
      }
    }
    return chunk->words[id & (kChunkSize - 1)];
  }

 private:
  static constexpr unsigned kChunkBits = 16;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kNumChunks = size_t{1} << (32 - kChunkBits);

  struct Chunk {
    std::atomic<Word> words[kChunkSize] = {};
  };

  std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
};

/// What one link-set generation says about source ids.
struct CrossKbTranslator::Memo {
  explicit Memo(uint64_t generation_in) : generation(generation_in) {}

  const uint64_t generation;
  IdArray<uint64_t> images;   ///< Image words (see kImaged).
  IdArray<uint32_t> targets;  ///< Target id of the image; 0 = not known.
};

CrossKbTranslator::CrossKbTranslator(const SameAsIndex* links,
                                     const Endpoint* source,
                                     const Endpoint* target)
    : links_(links),
      source_(source),
      target_(target),
      target_images_(std::make_unique<IdArray<uint32_t>>()) {}

CrossKbTranslator::~CrossKbTranslator() = default;

StatusOr<Term> CrossKbTranslator::Translate(const Term& t) const {
  if (t.is_literal()) return t;
  return links_->TranslateTo(t, target_prefix());
}

CrossKbTranslator::Memo& CrossKbTranslator::CurrentMemo() const {
  const uint64_t generation = links_->generation();
  Memo* memo = memo_.load(std::memory_order_acquire);
  if (memo != nullptr && memo->generation == generation) return *memo;
  std::lock_guard<std::mutex> lock(memos_mu_);
  memo = memo_.load(std::memory_order_relaxed);
  if (memo == nullptr || memo->generation != generation) {
    memos_.push_back(std::make_unique<Memo>(generation));
    memo = memos_.back().get();
    memo_.store(memo, std::memory_order_release);
  }
  return *memo;
}

TermId CrossKbTranslator::ImageIdOf(const Term& term) const {
  std::lock_guard<std::mutex> lock(image_ids_mu_);
  return image_ids_
      .try_emplace(term, static_cast<TermId>(image_ids_.size() + 1))
      .first->second;
}

StatusOr<bool> CrossKbTranslator::IsLiteral(TermId id) const {
  std::atomic<uint64_t>& word = CurrentMemo().images[id];
  const uint64_t bits = word.load(std::memory_order_acquire);
  if ((bits & kKnown) != 0) return (bits & kLiteral) != 0;
  SOFYA_ASSIGN_OR_RETURN(Term term, source_->DecodeTerm(id));
  word.fetch_or(KindBits(term), std::memory_order_release);
  return term.is_literal();
}

StatusOr<IdImage> CrossKbTranslator::ImageOf(TermId id) const {
  std::atomic<uint64_t>& word = CurrentMemo().images[id];
  uint64_t bits = word.load(std::memory_order_acquire);
  if ((bits & kImaged) == 0) {
    // Every thread computes the same bits, so concurrent misses may both
    // OR them in.
    SOFYA_ASSIGN_OR_RETURN(Term term, source_->DecodeTerm(id));
    StatusOr<Term> image = Translate(term);
    bits = KindBits(term) | kImaged |
           (image.ok() ? ImageIdOf(*image) : kNullTermId);
    word.fetch_or(bits, std::memory_order_release);
  }
  return IdImage{(bits & kLiteral) != 0, static_cast<TermId>(bits)};
}

StatusOr<TermId> CrossKbTranslator::TargetImageOf(TermId id) const {
  std::atomic<uint32_t>& word = (*target_images_)[id];
  TermId image = word.load(std::memory_order_acquire);
  if (image == kNullTermId) {
    SOFYA_ASSIGN_OR_RETURN(Term term, target_->DecodeTerm(id));
    image = ImageIdOf(term);
    word.store(image, std::memory_order_release);
  }
  return image;
}

StatusOr<TermId> CrossKbTranslator::TranslateId(TermId id) const {
  Memo& memo = CurrentMemo();
  std::atomic<uint32_t>& word = memo.targets[id];
  TermId target_id = word.load(std::memory_order_acquire);
  if (target_id != kNullTermId) return target_id;
  const uint64_t bits = memo.images[id].load(std::memory_order_acquire);
  if ((bits & kImaged) != 0 && static_cast<TermId>(bits) == kNullTermId) {
    return kNullTermId;  // No image.
  }
  // The term path: an absent image is asked for again on every call.
  SOFYA_ASSIGN_OR_RETURN(Term term, source_->DecodeTerm(id));
  StatusOr<Term> image = Translate(term);
  if (!image.ok()) return kNullTermId;
  target_id = target_->LookupTerm(*image);
  if (target_id != kNullTermId) {
    word.store(target_id, std::memory_order_release);
  }
  return target_id;
}

}  // namespace sofya
