/**
 * @file
 * Deterministic event-trace capture and replay (record once, analyze
 * many), at billion-event scale.
 *
 * The paper assumes a deterministic record/replay environment:
 * rollback after an invariant violation is "deterministic
 * re-execution under the sound hybrid analysis" (Section 2.3).  Our
 * interpreter already *is* that environment — an execution is a pure
 * function of (module, input, schedule seed) and tools never perturb
 * it — so the pipeline executes an input once with a TraceRecorder
 * sink that captures the complete analysis-relevant event stream.
 * The configurations it evaluates first run on that recording pass
 * itself (recordRun with a GroupSetup); later ones (rollback rounds,
 * cached captures) come from a TraceReplayer that performs only
 * decode + plan filtering + tool dispatch.  Both sources share one
 * DispatchCore (dispatch.h), so a group's RunResult is the same from
 * either.
 *
 * One decode pass per capture: the configurations a pipeline
 * evaluates together on one input (OptFT's full, hybrid and
 * optimistic+checker FastTrack; OptSlice's hybrid and optimistic
 * slicers) attach to one replayer as separate *groups* and share a
 * single pass over the stream.  Groups are independent: a checker
 * aborts only its own group, which stops at the next step flag — the
 * instruction boundary where a solo replay of that group stops — with
 * its RunResult frozen there, while the other groups run on.  Groups
 * that watch the same invariants under the same checker
 * configuration may share one checker (OptSlice's per-endpoint
 * optimistic slicers do): the checker's plan and state depend only
 * on (invariants, checker configuration), so per-slicer checkers
 * would see identical events and abort at the same boundary.
 *
 * Storage model: the stream is a sequence of immutable *segments*.
 * Capture appends into an open arena-backed TraceBuffer; when the
 * open segment crosses `OHA_TRACE_SEGMENT_BYTES` (default 64 MiB —
 * small traces never spill and stay all-in-RAM exactly as before) it
 * is closed at a record boundary and its bytes are written to an
 * unlinked temp file.  Each closed segment carries a SegmentHeader
 * (record/step counts, per-tid presence bitmap, byte length, flags)
 * that the persistence loaders validate against.  Replay reads
 * spilled segments through per-cursor read-only mmap windows — one
 * segment mapped at a time per replay — so peak resident trace bytes
 * are O(segment size × concurrent replays), not O(trace size).
 * Segments are immutable after close: any number of replays may read
 * one capture concurrently.  The stream is the capture's only
 * encoding, and TraceReplayer::runGroups() is the only replay loop
 * over it.
 *
 * Encoding (varint/zigzag-delta, one record per fired event):
 *
 *   header byte:  bits 0-1  record kind (instr event / block enter /
 *                           thread start / thread finish)
 *                 bit 2     step flag — set on the first record of
 *                           each executed instruction, so the
 *                           replayer can reconstruct the step count
 *                           and stop exactly at the instruction
 *                           boundary where a live run would abort
 *                 bits 3-7  thread id (31 = escape, varint follows)
 *
 *   instr event:  zigzag delta of the instruction id vs. the previous
 *                 instr record, then an opcode-dependent payload:
 *                 Load/Store/Lock/Unlock -> zigzag object-id delta +
 *                 varint offset; ICall -> varint resolved callee;
 *                 Spawn/Join -> varint other thread; Output -> zigzag
 *                 encoded value.  Everything else (the opcode, the
 *                 event class, Call's static callee) is recomputed
 *                 from the module at replay time.
 *
 *   block enter:  zigzag delta of the block id.
 *   thread start: varint parent tid + varint spawn site (+1; 0 means
 *                 kNoInstr, i.e. the main thread).
 *
 * Optional value payload: when a capture is recorded with
 * `TraceStoreOptions::captureValues`, every Load/Store record is
 * followed by the loaded/stored Value (kind byte + kind-dependent
 * varints), and the segment header carries
 * SegmentHeader::kFlagHasValues so replayers know to decode it.  The
 * record header byte has no spare bits (2 kind + 1 step + 5 tid), so
 * the flag is stream-level, carried per segment.  Value-consuming
 * tools can then replay instead of forcing a live run; payload-free
 * captures remain byte-identical to the original encoding.
 *
 * Delta chains (instr/obj/block) reset at every segment boundary, so
 * each segment decodes standalone — a seek never needs the previous
 * segment's tail state.
 *
 * Frame identifiers are *not* encoded: the interpreter assigns them
 * globally sequentially from 1, so the replayer reconstructs
 * identical frame ids (and Ret's caller frame / call-site context)
 * with a per-thread shadow call stack.
 *
 * Replay fidelity: delivered events, ordering, per-tool counts, step
 * counts, outputs and abort semantics are byte-identical to a live
 * run of the same tools under the same plans.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/interpreter.h"
#include "support/arena.h"

namespace oha::support {
class ByteWriter;
class ByteReader;
} // namespace oha::support

namespace oha::exec {

/** Arena-backed append-only byte stream with varint/zigzag codec.
 *  One TraceBuffer holds one (open or closed-in-RAM) segment. */
class TraceBuffer
{
  public:
    TraceBuffer() : arena_(std::make_unique<support::Arena>(kChunkBytes)) {}

    TraceBuffer(TraceBuffer &&) = default;
    TraceBuffer &operator=(TraceBuffer &&) = default;

    void
    putByte(std::uint8_t byte)
    {
        // Hot path: one pointer compare + store.  Chunk allocations
        // only every kChunkBytes bytes.
        if (wptr_ == wend_)
            newChunk();
        *wptr_++ = byte;
        ++bytes_;
    }

    void
    putVarint(std::uint64_t value)
    {
        while (value >= 0x80) {
            putByte(static_cast<std::uint8_t>(value) | 0x80);
            value >>= 7;
        }
        putByte(static_cast<std::uint8_t>(value));
    }

    void
    putZigzag(std::int64_t value)
    {
        putVarint((static_cast<std::uint64_t>(value) << 1) ^
                  static_cast<std::uint64_t>(value >> 63));
    }

    /** Bulk append (persistence loaders refilling a segment). */
    void
    putBytes(const void *data, std::size_t len)
    {
        const auto *bytes = static_cast<const std::uint8_t *>(data);
        while (len > 0) {
            if (wptr_ == wend_)
                newChunk();
            const auto n = std::min(
                len, static_cast<std::size_t>(wend_ - wptr_));
            std::memcpy(wptr_, bytes, n);
            wptr_ += n;
            bytes += n;
            len -= n;
            bytes_ += n;
        }
    }

    /** Payload bytes written so far. */
    std::size_t sizeBytes() const { return bytes_; }

    /** Visit the written bytes as contiguous (pointer, length) spans
     *  in stream order.  The buffer must not be appended to while the
     *  spans are in use. */
    template <typename Fn>
    void
    forEachSpan(Fn &&fn) const
    {
        for (std::size_t i = 0; i < chunks_.size(); ++i) {
            const Chunk &chunk = chunks_[i];
            const std::uint8_t *end = i + 1 == chunks_.size()
                                          ? wptr_
                                          : chunk.data + chunk.size;
            if (end != chunk.data)
                fn(chunk.data, static_cast<std::size_t>(end - chunk.data));
        }
    }

  private:
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    struct Chunk
    {
        std::uint8_t *data;
        std::size_t size;
    };

    void
    newChunk()
    {
        chunks_.push_back(
            {arena_->allocateArray<std::uint8_t>(kChunkBytes), kChunkBytes});
        wptr_ = chunks_.back().data;
        wend_ = wptr_ + kChunkBytes;
    }

    std::unique_ptr<support::Arena> arena_;
    std::vector<Chunk> chunks_;
    std::uint8_t *wptr_ = nullptr; ///< write cursor in the last chunk
    std::uint8_t *wend_ = nullptr; ///< end of the last chunk
    std::size_t bytes_ = 0;
};

/** Per-segment index entry, filled during capture; persisted captures
 *  are validated against it before any segment is adopted. */
struct SegmentHeader
{
    std::uint64_t records = 0;   ///< records of any kind
    std::uint64_t steps = 0;     ///< records carrying the step flag
    std::uint64_t tidBitmap = 0; ///< bit min(tid, 63) per present tid
    std::uint64_t bytes = 0;     ///< encoded payload length
    std::uint8_t flags = 0;

    /** Load/Store records carry a trailing value payload. */
    static constexpr std::uint8_t kFlagHasValues = 1;
    /** Segment lives in the spill file, not in RAM. */
    static constexpr std::uint8_t kFlagSpilled = 2;
};

/**
 * Unlinked on-disk overflow file shared by all spilled segments of
 * one capture.  Append-only during recording; immutable and
 * mmap-readable afterwards.  The file is unlinked at creation, so it
 * vanishes with the last handle even on crash.
 */
class SpillFile
{
  public:
    /** Read-only mmap window over one segment.  Mapped bytes are
     *  accounted in the global counters exposed under
     *  exec::testing so tests can assert the resident-bytes bound. */
    class Mapping
    {
      public:
        Mapping(void *base, std::size_t mapLen, std::size_t headSlack);
        ~Mapping();
        Mapping(const Mapping &) = delete;
        Mapping &operator=(const Mapping &) = delete;

        const std::uint8_t *
        data() const
        {
            return static_cast<const std::uint8_t *>(base_) + headSlack_;
        }

      private:
        void *base_;
        std::size_t mapLen_;
        std::size_t headSlack_; ///< offset round-down to page boundary
    };

    /** Create an unlinked temp file under $TMPDIR (default /tmp).
     *  Returns null (with a warning, and the errno in @p errnoOut)
     *  when the directory is not writable — callers then keep
     *  segments in RAM. */
    static std::shared_ptr<SpillFile> create(int *errnoOut = nullptr);

    /** Named-file mode: wrap an already-open, fully-verified capture
     *  file descriptor for read-only segment mapping (the load side
     *  of persistTrace).  The adopted fd is closed with the last
     *  handle; append() is forbidden. */
    static std::shared_ptr<SpillFile> adoptReadOnly(int fd,
                                                    std::uint64_t size);

    ~SpillFile();
    SpillFile(const SpillFile &) = delete;
    SpillFile &operator=(const SpillFile &) = delete;

    /** Append the buffer's bytes; on success stores the segment's
     *  starting offset in @p offsetOut.  A short write (disk full)
     *  warns and returns false with the file truncated back, so the
     *  caller can fall back to RAM. */
    bool append(const TraceBuffer &buffer, std::uint64_t &offsetOut);

    /** errno of the most recent failed write/create (0 = none). */
    int lastErrno() const { return lastErrno_; }

    /** Map @p length bytes at @p offset read-only.  Null on mmap
     *  failure. */
    std::shared_ptr<const Mapping> map(std::uint64_t offset,
                                       std::size_t length) const;

  private:
    explicit SpillFile(int fd) : fd_(fd) {}

    /** pwrite loop at the current tail; advances size_.  False (with
     *  a warning) on unrecoverable write failure. */
    bool writeAll(const std::uint8_t *data, std::size_t len);

    int fd_;
    std::uint64_t size_ = 0;
    bool readOnly_ = false;
    int lastErrno_ = 0;
};

/** Sequential decoder over one segment's byte spans (arena chunks
 *  for in-RAM segments, a single mmap window for spilled ones).  The
 *  owning TraceStore must outlive the cursor; the cursor itself keeps
 *  the mmap window alive.  Concurrent cursors over one segment are
 *  safe (reads only). */
class SegmentCursor
{
  public:
    bool
    atEnd() const
    {
        return ptr_ == end_ && next_ >= spans_.size();
    }

    std::uint8_t
    byte()
    {
        // Hot path: one pointer compare + deref.  Span hops only
        // every chunk (64 KiB) or never (mmap).
        if (ptr_ == end_)
            loadNextSpan();
        return *ptr_++;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t value = 0;
        unsigned shift = 0;
        while (true) {
            const std::uint8_t b = byte();
            value |= (std::uint64_t{b} & 0x7f) << shift;
            if (!(b & 0x80))
                return value;
            shift += 7;
        }
    }

    std::int64_t
    zigzag()
    {
        const std::uint64_t raw = varint();
        return static_cast<std::int64_t>(raw >> 1) ^
               -static_cast<std::int64_t>(raw & 1);
    }

    /** Bytes consumed so far within this segment. */
    std::size_t
    consumed() const
    {
        return before_ + static_cast<std::size_t>(ptr_ - begin_);
    }

  private:
    friend class TraceStore;

    struct Span
    {
        const std::uint8_t *data;
        std::size_t size;
    };

    void
    loadNextSpan()
    {
        before_ += static_cast<std::size_t>(end_ - begin_);
        const Span &span = spans_[next_++];
        begin_ = ptr_ = span.data;
        end_ = span.data + span.size;
    }

    std::vector<Span> spans_;
    std::shared_ptr<const void> keepAlive_; ///< mmap window, if any
    const std::uint8_t *begin_ = nullptr;
    const std::uint8_t *ptr_ = nullptr;
    const std::uint8_t *end_ = nullptr;
    std::size_t next_ = 0;
    std::size_t before_ = 0;
};

/** Encode @p value as a trace value payload (kind byte +
 *  kind-dependent varints). */
inline void
encodeTraceValue(TraceBuffer &out, const Value &value)
{
    out.putByte(static_cast<std::uint8_t>(value.kind));
    switch (value.kind) {
      case ValueKind::Scalar:
        out.putZigzag(value.num);
        break;
      case ValueKind::Pointer:
        out.putVarint(value.obj);
        out.putVarint(value.off);
        break;
      case ValueKind::FuncPtr:
      case ValueKind::Thread:
        out.putVarint(value.idx);
        break;
    }
}

/** Inverse of encodeTraceValue. */
inline Value
decodeTraceValue(SegmentCursor &in)
{
    switch (static_cast<ValueKind>(in.byte())) {
      case ValueKind::Scalar:
        return Value::scalar(in.zigzag());
      case ValueKind::Pointer: {
        const auto obj = static_cast<ObjectId>(in.varint());
        const auto off = static_cast<std::uint32_t>(in.varint());
        return Value::pointer(obj, off);
      }
      case ValueKind::FuncPtr:
        return Value::funcPtr(static_cast<FuncId>(in.varint()));
      case ValueKind::Thread:
        return Value::thread(static_cast<ThreadId>(in.varint()));
    }
    OHA_ASSERT(false, "corrupt trace value payload");
    return {};
}

/** Capture knobs for one TraceStore. */
struct TraceStoreOptions
{
    /** Close + spill the open segment once it reaches this many
     *  bytes.  0 means "read OHA_TRACE_SEGMENT_BYTES" (default
     *  64 MiB).  Small traces never cross the threshold and stay
     *  entirely in RAM, single-segment. */
    std::size_t segmentBytes = 0;
    /** Append a value payload to every Load/Store record. */
    bool captureValues = false;
};

/** OHA_TRACE_SEGMENT_BYTES with validation/clamping (see
 *  support::envSizeBytes); re-read on every call. */
std::size_t configuredSegmentBytes();

struct RecordedTrace;

/**
 * The segmented trace store: one open TraceBuffer receiving records
 * plus a list of closed, immutable segments (spilled to the overflow
 * file, or kept in RAM when spilling is unavailable).  The recording
 * side is driven by TraceRecorder; after finish() the store is
 * read-only and safe to share across concurrent replays.
 */
class TraceStore
{
  public:
    TraceStore() : TraceStore(TraceStoreOptions{}) {}
    explicit TraceStore(const TraceStoreOptions &options);

    TraceStore(TraceStore &&) = default;
    TraceStore &operator=(TraceStore &&) = default;

    // ---- recording side (TraceRecorder only) ----

    /** The open segment's byte stream. */
    TraceBuffer &open() { return open_; }

    /** Account one appended record in the open segment's header. */
    void
    noteRecord(ThreadId tid, bool step)
    {
        ++openHeader_.records;
        openHeader_.steps += step;
        openHeader_.tidBitmap |= std::uint64_t{1} << (tid < 63 ? tid : 63);
    }

    /** Should the open segment close?  Checked at record boundaries
     *  only, so segments close between records, never inside one. */
    bool openOverThreshold() const
    {
        return open_.sizeBytes() >= segmentBytes_;
    }

    /** Close the open segment: spill it to the overflow file (kept
     *  in RAM with a warning when spilling fails) and start a fresh
     *  open segment.  The caller must reset its delta chains. */
    void closeOpenSegment();

    /** End recording: the open segment (below the spill threshold by
     *  construction) becomes a final in-RAM segment, or is dropped
     *  when empty.  The store is read-only afterwards. */
    void finish();

    // ---- read side ----

    std::size_t numSegments() const { return segments_.size(); }

    const SegmentHeader &
    header(std::size_t i) const
    {
        return segments_[i].header;
    }

    /** Decoder positioned at the start of segment @p i.  Spilled
     *  segments are mapped for the cursor's lifetime; in-RAM
     *  segments borrow the store's arena. */
    SegmentCursor cursor(std::size_t i) const;

    /** Did any segment reach the overflow file? */
    bool spilled() const { return file_ != nullptr; }

    /** Spill-path health for one capture: how many segments reached
     *  disk, how many fell back to RAM after a spill failure (disk
     *  full, unwritable $TMPDIR), and the errno of the most recent
     *  failure.  Surfaced so callers can distinguish "small trace,
     *  never spilled" from "spill failed, RAM kept growing". */
    struct SpillStats
    {
        std::uint64_t spilledSegments = 0;
        std::uint64_t ramFallbackSegments = 0;
        int lastErrno = 0;
    };

    const SpillStats &spillStats() const { return spillStats_; }

    /** Total encoded payload bytes across all segments. */
    std::size_t sizeBytes() const { return totalBytes_; }

    /** Bytes held in RAM (open segment + unspilled closed segments);
     *  excludes spilled bytes, which cost only an mmap window during
     *  replay. */
    std::size_t
    residentBytes() const
    {
        return open_.sizeBytes() + residentClosed_;
    }

    std::size_t segmentBytesThreshold() const { return segmentBytes_; }
    bool capturesValues() const { return captureValues_; }

  private:
    friend bool persistTrace(const RecordedTrace &, const std::string &,
                             std::string *);
    friend std::shared_ptr<RecordedTrace> loadTrace(const std::string &,
                                                    std::string *);
    friend bool serializeRecordedTrace(const RecordedTrace &,
                                       support::ByteWriter &);
    friend std::shared_ptr<RecordedTrace>
    deserializeRecordedTrace(support::ByteReader &);

    struct Segment
    {
        SegmentHeader header;
        /** In-RAM payload; null when spilled (then fileOffset is
         *  valid). */
        std::unique_ptr<TraceBuffer> buffer;
        std::uint64_t fileOffset = 0;
    };

    /** Write @p buffer to the overflow file (created on first use).
     *  False when spilling is unavailable or the write fails; a
     *  failure stops disk writes for the rest of this store. */
    bool spillToFile(const TraceBuffer &buffer, std::uint64_t &offsetOut);

    /** Append a closed segment holding @p buffer: spilled when
     *  @p spill and the overflow file takes it, else kept in RAM
     *  (counted as a RAM fallback when a spill was wanted). */
    void addSegment(const SegmentHeader &header, TraceBuffer &&buffer,
                    bool spill);

    /** Close the open segment (no-op when empty) via addSegment. */
    void sealOpenSegment(bool spill);

    /** Visit segment @p i's encoded payload bytes in stream order
     *  (serialization; maps spilled segments for the call).  False on
     *  map failure. */
    bool forEachSegmentBytes(
        std::size_t i,
        const std::function<void(const std::uint8_t *, std::size_t)> &fn)
        const;

    std::size_t segmentBytes_;
    bool captureValues_;
    bool finished_ = false;
    bool spillFailed_ = false; ///< warn once, then keep RAM fallback
    TraceBuffer open_;
    SegmentHeader openHeader_;
    std::vector<Segment> segments_;
    std::shared_ptr<SpillFile> file_;
    std::size_t totalBytes_ = 0;
    std::size_t residentClosed_ = 0;
    SpillStats spillStats_;
};

/**
 * Interpreter-native recording sink (not a Tool: it sees every event
 * unconditionally, before plan filtering, with the full context).
 * Attach with Interpreter::setRecorder before run().
 */
class TraceRecorder
{
  public:
    TraceRecorder() = default;
    explicit TraceRecorder(const TraceStoreOptions &options)
        : store_(options)
    {
    }

    /** Mark the start of one guest instruction; the next record
     *  carries the step flag.  Idempotent, so an instruction that
     *  blocks without executing (Lock/Join) leaves the flag pending
     *  for the instruction that actually fires next. */
    void beginStep() { pendingStep_ = true; }

    /** Does recording @p op read payload fields out of the EventCtx?
     *  The interpreter skips context construction entirely for
     *  payload-free records (the bulk of the stream), so recording
     *  costs little more than the header + instr-delta encode. */
    static constexpr bool
    opHasPayload(ir::Opcode op)
    {
        switch (op) {
          case ir::Opcode::Load:
          case ir::Opcode::Store:
          case ir::Opcode::Lock:
          case ir::Opcode::Unlock:
          case ir::Opcode::ICall:
          case ir::Opcode::Spawn:
          case ir::Opcode::Join:
          case ir::Opcode::Output:
            return true;
          default:
            return false;
        }
    }

    /** Record one fired event.  @p ctx is consulted only when
     *  opHasPayload(ins.op) — it may be uninitialized otherwise. */
    void
    recordEvent(ThreadId tid, const ir::Instruction &ins,
                const EventCtx &ctx)
    {
        TraceBuffer &out = store_.open();
        const bool step = putHeader(out, kInstrEvent, tid);
        const InstrId id = ins.id;
        out.putZigzag(std::int64_t{id} - prevInstr_);
        prevInstr_ = id;
        switch (ins.op) {
          case ir::Opcode::Load:
          case ir::Opcode::Store:
            out.putZigzag(std::int64_t{ctx.obj} - prevObj_);
            prevObj_ = ctx.obj;
            out.putVarint(ctx.off);
            if (store_.capturesValues())
                encodeTraceValue(out, ctx.value);
            break;
          case ir::Opcode::Lock:
          case ir::Opcode::Unlock:
            out.putZigzag(std::int64_t{ctx.obj} - prevObj_);
            prevObj_ = ctx.obj;
            out.putVarint(ctx.off);
            break;
          case ir::Opcode::ICall:
            out.putVarint(ctx.calleeResolved);
            break;
          case ir::Opcode::Spawn:
          case ir::Opcode::Join:
            out.putVarint(ctx.otherTid);
            break;
          case ir::Opcode::Output:
            out.putZigzag(Interpreter::encodeValue(ctx.value));
            break;
          default:
            break;
        }
        endRecord(tid, step);
    }

    void
    recordBlockEnter(ThreadId tid, BlockId block)
    {
        TraceBuffer &out = store_.open();
        const bool step = putHeader(out, kBlockEnter, tid);
        out.putZigzag(std::int64_t{block} - prevBlock_);
        prevBlock_ = block;
        endRecord(tid, step);
    }

    void
    recordThreadStart(ThreadId tid, ThreadId parent, InstrId spawnSite)
    {
        TraceBuffer &out = store_.open();
        const bool step = putHeader(out, kThreadStart, tid);
        out.putVarint(parent);
        out.putVarint(spawnSite == kNoInstr ? 0
                                            : std::uint64_t{spawnSite} + 1);
        endRecord(tid, step);
    }

    void
    recordThreadFinish(ThreadId tid)
    {
        const bool step = putHeader(store_.open(), kThreadFinish, tid);
        endRecord(tid, step);
    }

    /** Finish and move the segmented store out (recorder is spent
     *  afterwards). */
    TraceStore
    take()
    {
        store_.finish();
        return std::move(store_);
    }

    // Record kinds (header bits 0-1).
    static constexpr std::uint8_t kInstrEvent = 0;
    static constexpr std::uint8_t kBlockEnter = 1;
    static constexpr std::uint8_t kThreadStart = 2;
    static constexpr std::uint8_t kThreadFinish = 3;
    /** Header tid field value meaning "varint tid follows". */
    static constexpr std::uint8_t kTidEscape = 31;

  private:
    bool
    putHeader(TraceBuffer &out, std::uint8_t kind, ThreadId tid)
    {
        std::uint8_t header = kind;
        const bool step = pendingStep_;
        if (step) {
            header |= 4;
            pendingStep_ = false;
        }
        if (tid < kTidEscape) {
            out.putByte(header | static_cast<std::uint8_t>(tid << 3));
        } else {
            out.putByte(header |
                        static_cast<std::uint8_t>(kTidEscape << 3));
            out.putVarint(tid);
        }
        return step;
    }

    /** Per-record bookkeeping + spill check.  Runs after the record
     *  is fully encoded, so segments close only at record
     *  boundaries; the delta chains restart with the new segment so
     *  it decodes standalone. */
    void
    endRecord(ThreadId tid, bool step)
    {
        store_.noteRecord(tid, step);
        if (store_.openOverThreshold()) {
            store_.closeOpenSegment();
            prevInstr_ = 0;
            prevObj_ = 0;
            prevBlock_ = 0;
        }
    }

    TraceStore store_;
    bool pendingStep_ = false;
    std::int64_t prevInstr_ = 0;
    std::int64_t prevObj_ = 0;
    std::int64_t prevBlock_ = 0;
};

/** One recorded execution: the segmented event stream plus the plain
 *  run's outcome.  Immutable after recording; safe to share
 *  read-only across concurrent replays. */
struct RecordedTrace
{
    TraceStore events;
    /** Result of the recording run (no tools attached, so
     *  `delivered` is empty and the status/steps are those of the
     *  uninstrumented execution). */
    RunResult result;
};

/**
 * Persist a finished capture to @p path as a checksummed, atomically
 * published file (support::DurableWriter, kind Capture): one meta
 * block carrying the SegmentHeader table and the RunResult, then one
 * raw block per segment payload.  False (with @p errorOut and a
 * warning) on any I/O failure — the previously published file, if
 * any, is untouched.
 */
bool persistTrace(const RecordedTrace &trace, const std::string &path,
                  std::string *errorOut = nullptr);

/**
 * Reload a capture persisted by persistTrace.  The file is fully
 * checksum-verified and semantically validated (segment/block counts,
 * byte lengths, step totals); segments replay through the same mmap
 * windows as live spilled segments — the loaded fd is adopted as a
 * read-only SpillFile, so load cost is O(metadata), not O(trace).
 * Null (with @p errorOut and a warning) on any defect: truncation,
 * bit flips, version skew, wrong kind — never a crash, never
 * corrupt events served.
 */
std::shared_ptr<RecordedTrace> loadTrace(const std::string &path,
                                         std::string *errorOut = nullptr);

/** Blob form of persistTrace for embedding a capture inside another
 *  container (cache snapshots): same meta encoding, segment payloads
 *  inline.  Spilled segments are read back through mmap windows;
 *  false (nothing appended beyond a possibly-partial blob — discard
 *  @p out) when a window cannot be mapped. */
bool serializeRecordedTrace(const RecordedTrace &trace,
                            support::ByteWriter &out);

/** Inverse of serializeRecordedTrace; bounds-checked and validated
 *  like loadTrace.  Originally-spilled segments are re-spilled to a
 *  fresh unlinked SpillFile (RAM fallback when unavailable).  Null on
 *  any defect. */
std::shared_ptr<RecordedTrace>
deserializeRecordedTrace(support::ByteReader &in);

/** Execute @p config once, uninstrumented, capturing its trace. */
RecordedTrace recordRun(const ir::Module &module, const ExecConfig &config);

/** Same, with explicit capture knobs (spill threshold, values). */
RecordedTrace recordRun(const ir::Module &module, const ExecConfig &config,
                        const TraceStoreOptions &options);

/** Attaches analysis groups to an event source (attach, addGroup,
 *  control).  Called once, on the live interpreter of a recording
 *  pass or on a replayer of the capture; the RunResults are the same
 *  either way. */
using GroupSetup = std::function<void(DispatchCore &)>;

/**
 * Analysis on the recording pass: execute @p config once, capturing
 * its trace, with the groups @p setup attaches running live next to
 * the recorder.  @p groupsOut receives one RunResult per group, each
 * equal to a replay of the capture under that group.  A group's abort
 * stops only that group; the recording always runs to the end, so the
 * capture equals an uninstrumented recordRun's.
 */
RecordedTrace recordRun(const ir::Module &module, const ExecConfig &config,
                        const TraceStoreOptions &options,
                        const GroupSetup &setup,
                        std::vector<RunResult> &groupsOut);

/** Replay @p trace once under the groups @p setup attaches; one
 *  RunResult per group. */
std::vector<RunResult> replayRun(const ir::Module &module,
                                 const RecordedTrace &trace,
                                 const GroupSetup &setup);

/**
 * Drives attached tools from a recorded trace without re-running
 * fetch/decode/eval.  The attach/addGroup/control surface is the
 * Interpreter's (both are DispatchCores), and the resulting RunResult
 * (status, steps, outputs, event accounting, per-tool delivery
 * counts) is byte-identical to a live run of the same tools under the
 * same plans on the same input.
 *
 * Aborts (the invariant checker on a violation) truncate the replay
 * at the same instruction boundary a live run would stop at: the
 * aborting instruction's remaining records are still delivered, then
 * the replay ends with Status::Aborted and the step count of the live
 * aborted run.  A full (un-aborted) replay reports the recorded run's
 * status — including Aborted/StepLimit when the *recording* itself
 * was truncated.
 *
 * Groups: one replayer can drive several independent analysis
 * configurations from a single decode pass.  Attachments join the
 * newest group (group 0 exists from construction; addGroup() opens
 * the next).  Each group aborts on its own through control(g): at the
 * next step flag — exactly where a solo replay of that group would
 * stop — the group's RunResult is frozen and its attachments receive
 * nothing more, while the other groups keep running.  The pass ends
 * early once every group has stopped.  runGroups() returns one
 * RunResult per group, each equal field by field to a solo replay of
 * that group's attachments; run() is the one-group case.
 */
class TraceReplayer : public DispatchCore
{
  public:
    TraceReplayer(const ir::Module &module, const RecordedTrace &trace);

    /** Replay the recorded stream once through every group; one
     *  RunResult per group, in group order. */
    std::vector<RunResult> runGroups();

    /** Replay the recorded stream through the attached tools (one
     *  group). */
    RunResult run();

  private:
    const ir::Module &module_;
    const RecordedTrace &trace_;
};

namespace testing {

/** Trace bytes currently mmap'd across all replays (this process). */
std::size_t mappedTraceBytesNow();
/** High-water mark of mappedTraceBytesNow() since the last reset. */
std::size_t mappedTraceBytesPeak();
void resetMappedTraceBytesPeak();

/** Replay passes (TraceReplayer::runGroups calls, one decode of a
 *  capture each) started in this process. */
std::uint64_t replayPassesNow();

/** Byte offset within the concatenated encoded stream immediately
 *  after the last record of 1-based step @p step — i.e. a spill
 *  threshold of exactly this value makes the first segment end on
 *  that step's boundary.  Decodes the stream (test-only pace). */
std::size_t byteOffsetAfterStep(const ir::Module &module,
                                const TraceStore &store,
                                std::uint64_t step);

} // namespace testing

} // namespace oha::exec
