#include "exec/trace.h"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "support/durable_file.h"
#include "support/env.h"

namespace oha::exec {

namespace {

// Global mmap accounting: tests assert that replaying a spilled
// capture keeps peak resident trace bytes O(segment size × concurrent
// replays) rather than O(trace size).
std::atomic<std::size_t> g_mappedNow{0};
std::atomic<std::size_t> g_mappedPeak{0};
std::atomic<std::uint64_t> g_replayPasses{0};

void
accountMap(std::size_t bytes)
{
    const std::size_t now =
        g_mappedNow.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t peak = g_mappedPeak.load(std::memory_order_relaxed);
    while (now > peak &&
           !g_mappedPeak.compare_exchange_weak(peak, now,
                                               std::memory_order_relaxed)) {
    }
}

void
accountUnmap(std::size_t bytes)
{
    g_mappedNow.fetch_sub(bytes, std::memory_order_relaxed);
}

} // namespace

namespace testing {

std::size_t
mappedTraceBytesNow()
{
    return g_mappedNow.load(std::memory_order_relaxed);
}

std::size_t
mappedTraceBytesPeak()
{
    return g_mappedPeak.load(std::memory_order_relaxed);
}

void
resetMappedTraceBytesPeak()
{
    g_mappedPeak.store(g_mappedNow.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

std::uint64_t
replayPassesNow()
{
    return g_replayPasses.load(std::memory_order_relaxed);
}

} // namespace testing

std::size_t
configuredSegmentBytes()
{
    // 64 MiB default: the whole existing corpus records well under
    // one segment, so spilling is opt-in via the environment (or
    // TraceStoreOptions) until traces actually outgrow RAM.  The
    // floor keeps a segment big enough for at least one maximal
    // record; the ceiling guards against fat-finger terabyte values.
    return support::envSizeBytes("OHA_TRACE_SEGMENT_BYTES",
                                 std::size_t{64} << 20, std::size_t{4} << 10,
                                 std::size_t{64} << 30);
}

// ---------------------------------------------------------------- SpillFile

SpillFile::Mapping::Mapping(void *base, std::size_t mapLen,
                            std::size_t headSlack)
    : base_(base), mapLen_(mapLen), headSlack_(headSlack)
{
    accountMap(mapLen_);
}

SpillFile::Mapping::~Mapping()
{
    ::munmap(base_, mapLen_);
    accountUnmap(mapLen_);
}

std::shared_ptr<SpillFile>
SpillFile::create(int *errnoOut)
{
    const char *tmpdir = std::getenv("TMPDIR");
    std::string path = (tmpdir && *tmpdir) ? tmpdir : "/tmp";
    path += "/oha-trace-XXXXXX";
    std::vector<char> templ(path.begin(), path.end());
    templ.push_back('\0');
    const int fd = ::mkstemp(templ.data());
    if (fd < 0) {
        if (errnoOut)
            *errnoOut = errno;
        OHA_WARN("trace spill disabled: mkstemp(%s) failed: %s",
                 templ.data(), std::strerror(errno));
        return nullptr;
    }
    // Unlink immediately: the file lives as long as the fd and can
    // never be leaked, even on crash.
    ::unlink(templ.data());
    return std::shared_ptr<SpillFile>(new SpillFile(fd));
}

std::shared_ptr<SpillFile>
SpillFile::adoptReadOnly(int fd, std::uint64_t size)
{
    OHA_ASSERT(fd >= 0);
    auto file = std::shared_ptr<SpillFile>(new SpillFile(fd));
    file->size_ = size;
    file->readOnly_ = true;
    return file;
}

SpillFile::~SpillFile()
{
    ::close(fd_);
}

bool
SpillFile::writeAll(const std::uint8_t *data, std::size_t len)
{
    OHA_ASSERT(!readOnly_, "append to a read-only (adopted) SpillFile");
    while (len > 0) {
        const long n = support::io::pwriteFd(fd_, data, len, size_);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            lastErrno_ = errno;
            OHA_WARN("trace spill write failed: %s; keeping segment "
                     "in RAM",
                     std::strerror(errno));
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
        size_ += static_cast<std::uint64_t>(n);
    }
    return true;
}

bool
SpillFile::append(const TraceBuffer &buffer, std::uint64_t &offsetOut)
{
    const std::uint64_t start = size_;
    bool ok = true;
    buffer.forEachSpan([&](const std::uint8_t *data, std::size_t len) {
        ok = ok && writeAll(data, len);
    });
    if (!ok) {
        // Truncate the partial tail so the next append starts clean.
        if (::ftruncate(fd_, static_cast<::off_t>(start)) == 0)
            size_ = start;
        return false;
    }
    offsetOut = start;
    return true;
}

std::shared_ptr<const SpillFile::Mapping>
SpillFile::map(std::uint64_t offset, std::size_t length) const
{
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t alignedOff = offset & ~(std::uint64_t{page} - 1);
    const std::size_t headSlack = static_cast<std::size_t>(offset - alignedOff);
    const std::size_t mapLen = length + headSlack;
    void *base = support::io::mmapFd(mapLen, fd_, alignedOff);
    if (base == MAP_FAILED) {
        OHA_WARN("mmap of spilled trace segment failed: %s",
                 std::strerror(errno));
        return nullptr;
    }
    return std::make_shared<const Mapping>(base, mapLen, headSlack);
}

// ---------------------------------------------------------------- TraceStore

TraceStore::TraceStore(const TraceStoreOptions &options)
    : segmentBytes_(options.segmentBytes != 0 ? options.segmentBytes
                                              : configuredSegmentBytes()),
      captureValues_(options.captureValues)
{
}

bool
TraceStore::spillToFile(const TraceBuffer &buffer, std::uint64_t &offsetOut)
{
    if (!file_ && !spillFailed_) {
        int createErrno = 0;
        file_ = SpillFile::create(&createErrno);
        if (!file_) {
            spillFailed_ = true;
            spillStats_.lastErrno = createErrno;
        }
    }
    if (!file_ || spillFailed_)
        return false;
    if (file_->append(buffer, offsetOut))
        return true;
    // Mid-stream spill failure (disk full, I/O error): stop retrying
    // disk for the rest of this capture, but KEEP the spill file —
    // segments already written to it stay on disk and replay
    // normally; only new segments fall back to RAM.  The errno is
    // surfaced via spillStats().
    spillFailed_ = true;
    spillStats_.lastErrno = file_->lastErrno();
    if (spillStats_.spilledSegments == 0)
        file_.reset(); // nothing on disk yet: drop the file
    return false;
}

void
TraceStore::addSegment(const SegmentHeader &header, TraceBuffer &&buffer,
                       bool spill)
{
    Segment segment;
    segment.header = header;
    const std::size_t bytes = buffer.sizeBytes();
    if (spill && spillToFile(buffer, segment.fileOffset)) {
        segment.header.flags |= SegmentHeader::kFlagSpilled;
        ++spillStats_.spilledSegments;
    } else {
        segment.buffer = std::make_unique<TraceBuffer>(std::move(buffer));
        residentClosed_ += bytes;
        if (spill)
            ++spillStats_.ramFallbackSegments;
    }
    totalBytes_ += bytes;
    segments_.push_back(std::move(segment));
}

void
TraceStore::sealOpenSegment(bool spill)
{
    if (open_.sizeBytes() == 0)
        return;
    SegmentHeader header = openHeader_;
    header.bytes = open_.sizeBytes();
    if (captureValues_)
        header.flags |= SegmentHeader::kFlagHasValues;
    addSegment(header, std::move(open_), spill);
    open_ = TraceBuffer();
    openHeader_ = SegmentHeader{};
}

void
TraceStore::closeOpenSegment()
{
    OHA_ASSERT(!finished_, "closeOpenSegment() after finish()");
    sealOpenSegment(true);
}

void
TraceStore::finish()
{
    if (finished_)
        return;
    // The trailing segment stays in RAM: it is below the spill
    // threshold by construction, and for unspilled captures this
    // preserves the original all-in-memory behavior exactly.  An
    // empty trailing segment (the last record landed precisely on
    // the threshold) is dropped.
    sealOpenSegment(false);
    finished_ = true;
}

SegmentCursor
TraceStore::cursor(std::size_t i) const
{
    OHA_ASSERT(i < segments_.size());
    const Segment &segment = segments_[i];
    SegmentCursor cursor;
    if (segment.buffer) {
        segment.buffer->forEachSpan(
            [&](const std::uint8_t *data, std::size_t len) {
                cursor.spans_.push_back({data, len});
            });
    } else {
        auto mapping = file_->map(segment.fileOffset,
                                  static_cast<std::size_t>(
                                      segment.header.bytes));
        OHA_ASSERT(mapping, "cannot map spilled trace segment");
        cursor.spans_.push_back(
            {mapping->data(),
             static_cast<std::size_t>(segment.header.bytes)});
        cursor.keepAlive_ = std::move(mapping);
    }
    return cursor;
}

// ------------------------------------------------------------- persistence

bool
TraceStore::forEachSegmentBytes(
    std::size_t i,
    const std::function<void(const std::uint8_t *, std::size_t)> &fn) const
{
    OHA_ASSERT(i < segments_.size());
    const Segment &segment = segments_[i];
    if (segment.buffer) {
        segment.buffer->forEachSpan(fn);
        return true;
    }
    auto mapping = file_->map(segment.fileOffset,
                              static_cast<std::size_t>(
                                  segment.header.bytes));
    if (!mapping)
        return false;
    fn(mapping->data(), static_cast<std::size_t>(segment.header.bytes));
    return true;
}

namespace {

// Capture meta encoding, shared between the capture-file meta block
// and the snapshot-embedded blob form.  Bump when any serialized
// field changes; readers reject other versions (recompute, don't
// guess).
constexpr std::uint32_t kTraceMetaVersion = 2;

void
serializeRunResult(support::ByteWriter &out, const RunResult &result)
{
    out.u32(static_cast<std::uint32_t>(result.status));
    out.str(result.abortReason);
    out.u32(result.abortMeta.kind);
    out.u64(result.abortMeta.site);
    out.u64(result.abortMeta.aux);
    out.u64(result.abortMeta.observed);
    out.u32(result.abortMeta.thread);
    out.u64(result.outputs.size());
    for (const auto &[instr, value] : result.outputs) {
        out.u64(instr);
        out.u64(static_cast<std::uint64_t>(value));
    }
    out.u64(result.steps);
    for (std::uint64_t count : result.totalEvents.counts)
        out.u64(count);
    out.u64(result.delivered.size());
    for (const EventCounts &counts : result.delivered)
        for (std::uint64_t count : counts.counts)
            out.u64(count);
    out.u32(result.numThreads);
    out.u64(result.schedule.size());
    for (const ScheduleStep &step : result.schedule) {
        out.u32(step.thread);
        out.u32(step.quantum);
    }
}

bool
deserializeRunResult(support::ByteReader &in, RunResult &result)
{
    const std::uint32_t status = in.u32();
    if (status > static_cast<std::uint32_t>(RunResult::Status::StepLimit))
        return false;
    result.status = static_cast<RunResult::Status>(status);
    result.abortReason = in.str();
    result.abortMeta.kind = in.u32();
    result.abortMeta.site = in.u64();
    result.abortMeta.aux = in.u64();
    result.abortMeta.observed = in.u64();
    result.abortMeta.thread = in.u32();
    const std::uint64_t numOutputs = in.u64();
    if (numOutputs > in.remaining() / 16)
        return false;
    result.outputs.reserve(static_cast<std::size_t>(numOutputs));
    for (std::uint64_t i = 0; i < numOutputs && in.ok(); ++i) {
        const std::uint64_t instr = in.u64();
        const auto value = static_cast<std::int64_t>(in.u64());
        if (instr > kNoInstr)
            return false;
        result.outputs.push_back({static_cast<InstrId>(instr), value});
    }
    result.steps = in.u64();
    for (std::uint64_t &count : result.totalEvents.counts)
        count = in.u64();
    const std::uint64_t numDelivered = in.u64();
    if (numDelivered > in.remaining() / (8 * kNumEventClasses))
        return false;
    result.delivered.resize(static_cast<std::size_t>(numDelivered));
    for (EventCounts &counts : result.delivered)
        for (std::uint64_t &count : counts.counts)
            count = in.u64();
    result.numThreads = in.u32();
    const std::uint64_t numSchedule = in.u64();
    if (numSchedule > in.remaining() / 8)
        return false;
    result.schedule.reserve(static_cast<std::size_t>(numSchedule));
    for (std::uint64_t i = 0; i < numSchedule && in.ok(); ++i) {
        const auto thread = static_cast<ThreadId>(in.u32());
        const std::uint32_t quantum = in.u32();
        result.schedule.push_back({thread, quantum});
    }
    return in.ok();
}

void
serializeSegmentHeader(support::ByteWriter &out, const SegmentHeader &header)
{
    out.u64(header.records);
    out.u64(header.steps);
    out.u64(header.tidBitmap);
    out.u64(header.bytes);
    out.u8(header.flags);
}

bool
deserializeSegmentHeader(support::ByteReader &in, SegmentHeader &header)
{
    header.records = in.u64();
    header.steps = in.u64();
    header.tidBitmap = in.u64();
    header.bytes = in.u64();
    header.flags = in.u8();
    // Unknown flag bits mean a writer newer than this reader: reject
    // rather than misinterpret.
    if (header.flags & ~(SegmentHeader::kFlagHasValues |
                         SegmentHeader::kFlagSpilled))
        return false;
    return in.ok();
}

/** Meta prologue shared by the capture file and the snapshot blob:
 *  version, capture knobs, segment count, run result, header table. */
void
serializeTraceMeta(support::ByteWriter &out, const RecordedTrace &trace)
{
    const TraceStore &store = trace.events;
    out.u32(kTraceMetaVersion);
    out.u8(store.capturesValues() ? 1 : 0);
    out.u64(store.segmentBytesThreshold());
    out.u64(store.numSegments());
    serializeRunResult(out, trace.result);
    for (std::size_t i = 0; i < store.numSegments(); ++i)
        serializeSegmentHeader(out, store.header(i));
}

struct TraceMeta
{
    bool captureValues = false;
    std::uint64_t segmentBytes = 0;
    std::vector<SegmentHeader> headers;
    RunResult result;
};

bool
deserializeTraceMeta(support::ByteReader &in, TraceMeta &meta)
{
    if (in.u32() != kTraceMetaVersion)
        return false;
    const std::uint8_t captureValues = in.u8();
    if (captureValues > 1)
        return false;
    meta.captureValues = captureValues != 0;
    meta.segmentBytes = in.u64();
    if (meta.segmentBytes == 0)
        return false;
    const std::uint64_t numSegments = in.u64();
    if (!deserializeRunResult(in, meta.result))
        return false;
    // 33 bytes per serialized header.
    if (numSegments > in.remaining() / 33)
        return false;
    meta.headers.resize(static_cast<std::size_t>(numSegments));
    std::uint64_t stepSum = 0;
    for (SegmentHeader &header : meta.headers) {
        if (!deserializeSegmentHeader(in, header))
            return false;
        if (header.bytes == 0)
            return false; // empty segments are never stored
        stepSum += header.steps;
    }
    // The replay loop asserts that step flags reproduce the recorded
    // step count; validate it here so a corrupt capture is rejected
    // instead of tripping the assert mid-replay.
    if (stepSum != meta.result.steps)
        return false;
    return in.ok();
}

} // namespace

bool
persistTrace(const RecordedTrace &trace, const std::string &path,
             std::string *errorOut)
{
    const TraceStore &store = trace.events;
    OHA_ASSERT(store.finished_, "persistTrace before finish()");

    support::DurableWriter writer(path, support::kDurableKindCapture);
    support::ByteWriter meta;
    serializeTraceMeta(meta, trace);
    writer.addBlock(meta.data());

    for (std::size_t i = 0; i < store.numSegments(); ++i) {
        writer.beginBlock();
        const bool ok = store.forEachSegmentBytes(
            i, [&](const std::uint8_t *data, std::size_t len) {
                writer.writeChunk(data, len);
            });
        writer.endBlock();
        if (!ok) {
            if (errorOut)
                *errorOut = path + ": cannot map spilled segment " +
                            std::to_string(i);
            OHA_WARN("trace persist to %s failed: segment %zu unmappable",
                     path.c_str(), i);
            return false;
        }
    }

    std::string error;
    if (!writer.commit(&error)) {
        if (errorOut)
            *errorOut = error;
        OHA_WARN("trace persist failed: %s", error.c_str());
        return false;
    }
    return true;
}

std::shared_ptr<RecordedTrace>
loadTrace(const std::string &path, std::string *errorOut)
{
    const auto reject = [&](const std::string &reason)
        -> std::shared_ptr<RecordedTrace> {
        if (errorOut)
            *errorOut = path + ": " + reason;
        OHA_WARN("rejecting capture file %s: %s", path.c_str(),
                 reason.c_str());
        return nullptr;
    };

    std::string error;
    auto reader = support::DurableReader::open(
        path, support::kDurableKindCapture, &error);
    if (!reader) {
        if (errorOut)
            *errorOut = error;
        OHA_WARN("rejecting capture file: %s", error.c_str());
        return nullptr;
    }

    if (reader->numBlocks() < 1)
        return reject("no meta block");
    std::string metaBytes;
    if (!reader->readBlock(0, metaBytes))
        return reject("meta block unreadable");
    support::ByteReader metaIn(metaBytes);
    TraceMeta meta;
    if (!deserializeTraceMeta(metaIn, meta) || metaIn.remaining() != 0)
        return reject("corrupt meta block");
    if (reader->numBlocks() != 1 + meta.headers.size())
        return reject("block count does not match segment table");

    // Cross-check every segment block length against the header
    // table before adopting anything.
    for (std::size_t i = 0; i < meta.headers.size(); ++i) {
        if (reader->blockLength(1 + i) != meta.headers[i].bytes)
            return reject("segment " + std::to_string(i) +
                          " length mismatch");
    }

    auto trace = std::make_shared<RecordedTrace>();
    trace->result = std::move(meta.result);

    TraceStoreOptions options;
    options.segmentBytes = static_cast<std::size_t>(meta.segmentBytes);
    options.captureValues = meta.captureValues;
    TraceStore store(options);

    store.file_ =
        SpillFile::adoptReadOnly(reader->releaseFd(), reader->fileSize());

    for (std::size_t i = 0; i < meta.headers.size(); ++i) {
        TraceStore::Segment segment;
        segment.header = meta.headers[i];
        // Every loaded segment replays through an mmap window of the
        // capture file, whether or not it was spilled at record time.
        segment.header.flags |= SegmentHeader::kFlagSpilled;
        segment.fileOffset = reader->blockOffset(1 + i);
        store.totalBytes_ +=
            static_cast<std::size_t>(segment.header.bytes);
        ++store.spillStats_.spilledSegments;
        store.segments_.push_back(std::move(segment));
    }
    store.finished_ = true;

    // Verification map pass: prove every window the replayers will
    // need is mappable now, so a load under injected mmap faults is
    // rejected here instead of tripping the replay-time assert.
    for (std::size_t i = 0; i < store.segments_.size(); ++i) {
        const TraceStore::Segment &segment = store.segments_[i];
        if (!store.file_->map(segment.fileOffset,
                              static_cast<std::size_t>(
                                  segment.header.bytes)))
            return reject("segment " + std::to_string(i) +
                          " unmappable");
    }

    trace->events = std::move(store);
    return trace;
}

bool
serializeRecordedTrace(const RecordedTrace &trace, support::ByteWriter &out)
{
    const TraceStore &store = trace.events;
    OHA_ASSERT(store.finished_, "serializeRecordedTrace before finish()");
    serializeTraceMeta(out, trace);
    for (std::size_t i = 0; i < store.numSegments(); ++i) {
        const bool ok = store.forEachSegmentBytes(
            i, [&](const std::uint8_t *data, std::size_t len) {
                out.bytes(data, len);
            });
        if (!ok)
            return false;
    }
    return true;
}

std::shared_ptr<RecordedTrace>
deserializeRecordedTrace(support::ByteReader &in)
{
    TraceMeta meta;
    if (!deserializeTraceMeta(in, meta))
        return nullptr;
    // The remaining payload must hold every segment.
    std::uint64_t needed = 0;
    for (const SegmentHeader &header : meta.headers)
        needed += header.bytes;
    if (needed > in.remaining())
        return nullptr;

    auto trace = std::make_shared<RecordedTrace>();
    trace->result = std::move(meta.result);

    TraceStoreOptions options;
    options.segmentBytes = static_cast<std::size_t>(meta.segmentBytes);
    options.captureValues = meta.captureValues;
    TraceStore store(options);

    for (SegmentHeader header : meta.headers) {
        const auto bytes = static_cast<std::size_t>(header.bytes);
        const std::uint8_t *payload = in.bytes(bytes);
        if (!payload)
            return nullptr;
        TraceBuffer buffer;
        buffer.putBytes(payload, bytes);
        // Re-spill segments that lived on disk originally, so a
        // restored big capture does not balloon RAM.  Failure falls
        // back to RAM exactly like live capture does.
        const bool wasSpilled = header.flags & SegmentHeader::kFlagSpilled;
        header.flags &=
            static_cast<std::uint8_t>(~SegmentHeader::kFlagSpilled);
        store.addSegment(header, std::move(buffer), wasSpilled);
    }
    store.finished_ = true;
    if (!in.ok())
        return nullptr;
    trace->events = std::move(store);
    return trace;
}

// ----------------------------------------------------------------- capture

RecordedTrace
recordRun(const ir::Module &module, const ExecConfig &config)
{
    return recordRun(module, config, TraceStoreOptions{});
}

RecordedTrace
recordRun(const ir::Module &module, const ExecConfig &config,
          const TraceStoreOptions &options)
{
    std::vector<RunResult> groups;
    return recordRun(module, config, options, {}, groups);
}

RecordedTrace
recordRun(const ir::Module &module, const ExecConfig &config,
          const TraceStoreOptions &options, const GroupSetup &setup,
          std::vector<RunResult> &groupsOut)
{
    RecordedTrace trace;
    TraceRecorder recorder(options);
    Interpreter interp(module, config);
    interp.setRecorder(&recorder);
    if (setup)
        setup(interp);
    groupsOut = interp.runGroups(&trace.result);
    trace.events = recorder.take();
    return trace;
}

std::vector<RunResult>
replayRun(const ir::Module &module, const RecordedTrace &trace,
          const GroupSetup &setup)
{
    TraceReplayer replayer(module, trace);
    setup(replayer);
    return replayer.runGroups();
}

// ------------------------------------------------------------------ replay

TraceReplayer::TraceReplayer(const ir::Module &module,
                             const RecordedTrace &trace)
    : module_(module), trace_(trace)
{
}

RunResult
TraceReplayer::run()
{
    OHA_ASSERT(numGroups() == 1, "run() replays one group");
    return std::move(runGroups().front());
}

std::vector<RunResult>
TraceReplayer::runGroups()
{
    g_replayPasses.fetch_add(1, std::memory_order_relaxed);

    // Same per-site dispatch snapshot as the interpreter: low byte =
    // attachment cover bits, high byte = event class.
    beginPass(module_);

    // Shadow call stacks: the interpreter assigns frame ids globally
    // sequentially from 1 (main's root first), and the record stream
    // is in execution order, so allocating ids in record order
    // reproduces them exactly.
    struct SimFrame
    {
        std::uint64_t frameId;
        const ir::Instruction *callSite; ///< null for thread roots
    };
    std::vector<std::vector<SimFrame>> stacks;
    std::uint64_t nextFrameId = 1;

    // Stream-wide accounting; a group that stops takes a snapshot.
    EventCounts totalEvents;
    std::vector<std::pair<InstrId, std::int64_t>> outputs;
    std::uint64_t stepsStarted = 0;
    std::uint32_t numThreads = 0;

    // Freeze every group whose abort is pending: a live run honours
    // an abort at the next instruction boundary (the aborting
    // instruction completes all its deliveries), which is where this
    // is called — so the frozen result is the solo aborted replay's.
    auto freezeAtBoundary = [&] {
        Progress at;
        at.steps = stepsStarted;
        at.totalEvents = totalEvents;
        at.numThreads = numThreads;
        at.outputs = outputs.size();
        freezeAbortedGroups(at);
    };

    const TraceStore &store = trace_.events;

    // Segments decode standalone (delta chains restart per segment);
    // a spilled segment is mapped only while its cursor lives, so
    // peak resident trace bytes track the segment size, not the
    // trace size.
    for (std::size_t seg = 0;
         seg < store.numSegments() && runningGroups() > 0; ++seg) {
        const bool hasValues =
            store.header(seg).flags & SegmentHeader::kFlagHasValues;
        SegmentCursor reader = store.cursor(seg);
        std::int64_t prevInstr = 0;
        std::int64_t prevObj = 0;
        std::int64_t prevBlock = 0;

        while (!reader.atEnd()) {
            const std::uint8_t header = reader.byte();
            const std::uint8_t kind = header & 3;
            // Step flag: this record begins a new guest instruction,
            // the boundary at which pending aborts take effect.
            if (header & 4) {
                if (abortPending()) {
                    freezeAtBoundary();
                    if (runningGroups() == 0)
                        break;
                }
                ++stepsStarted;
            }
            ThreadId tid = header >> 3;
            if (tid == TraceRecorder::kTidEscape)
                tid = static_cast<ThreadId>(reader.varint());

            switch (kind) {
              case TraceRecorder::kInstrEvent: {
                prevInstr += reader.zigzag();
                const auto id = static_cast<InstrId>(prevInstr);
                const ir::Instruction &ins = module_.instr(id);
                const std::uint16_t disp = dispatch_[id];
                const auto evMask =
                    static_cast<std::uint8_t>(disp & active_);
                const auto cls = static_cast<EventClass>(disp >> 8);
                ++totalEvents[cls];

                // Decode the payload into locals first: most records
                // are not covered by any attached plan, and for those
                // the only obligatory work is advancing the delta
                // chains, the shadow stacks and the output log.
                // Building the full EventCtx happens only on
                // delivery.
                ObjectId obj = 0;
                std::uint32_t off = 0;
                FuncId callee = kNoFunc;
                ThreadId otherTid = 0;
                Value value;
                switch (ins.op) {
                  case ir::Opcode::Load:
                  case ir::Opcode::Store:
                    prevObj += reader.zigzag();
                    obj = static_cast<ObjectId>(prevObj);
                    off = static_cast<std::uint32_t>(reader.varint());
                    if (hasValues)
                        value = decodeTraceValue(reader);
                    break;
                  case ir::Opcode::Lock:
                  case ir::Opcode::Unlock:
                    prevObj += reader.zigzag();
                    obj = static_cast<ObjectId>(prevObj);
                    off = static_cast<std::uint32_t>(reader.varint());
                    break;
                  case ir::Opcode::Call:
                    callee = ins.callee;
                    break;
                  case ir::Opcode::ICall:
                    callee = static_cast<FuncId>(reader.varint());
                    break;
                  case ir::Opcode::Spawn:
                  case ir::Opcode::Join:
                    otherTid = static_cast<ThreadId>(reader.varint());
                    break;
                  case ir::Opcode::Output:
                    outputs.push_back({ins.id, reader.zigzag()});
                    break;
                  default:
                    break;
                }

                if (evMask) {
                    std::vector<SimFrame> &stack = stacks[tid];
                    EventCtx ctx;
                    ctx.tid = tid;
                    ctx.instr = &ins;
                    ctx.frameId = stack.back().frameId;
                    ctx.obj = obj;
                    ctx.off = off;
                    ctx.calleeResolved = callee;
                    ctx.otherTid = otherTid;
                    ctx.value = value;
                    switch (ins.op) {
                      case ir::Opcode::Call:
                      case ir::Opcode::ICall:
                        ctx.frame2 = nextFrameId;
                        break;
                      case ir::Opcode::Ret:
                        if (stack.size() > 1) {
                            ctx.frame2 = stack[stack.size() - 2].frameId;
                            ctx.callInstr = stack.back().callSite;
                        }
                        break;
                      case ir::Opcode::Spawn:
                        ctx.frame2 = stacks[otherTid].back().frameId;
                        break;
                      default:
                        break;
                    }
                    deliverEvent(ctx, evMask, cls);
                }

                // Stack mutations happen after delivery, mirroring
                // the interpreter (the Call event sees the caller's
                // frame as frameId; Ret sees the returning frame).
                if (ins.op == ir::Opcode::Call ||
                    ins.op == ir::Opcode::ICall) {
                    stacks[tid].push_back({nextFrameId++, &ins});
                } else if (ins.op == ir::Opcode::Ret) {
                    stacks[tid].pop_back();
                }
                break;
              }
              case TraceRecorder::kBlockEnter: {
                prevBlock += reader.zigzag();
                const auto block = static_cast<BlockId>(prevBlock);
                ++totalEvents[EventClass::BlockEnter];
                deliverBlockEnter(tid, block);
                break;
              }
              case TraceRecorder::kThreadStart: {
                const auto parent =
                    static_cast<ThreadId>(reader.varint());
                const std::uint64_t siteRaw = reader.varint();
                const InstrId spawnSite =
                    siteRaw == 0 ? kNoInstr
                                 : static_cast<InstrId>(siteRaw - 1);
                if (tid >= stacks.size())
                    stacks.resize(tid + 1);
                stacks[tid].push_back({nextFrameId++, nullptr});
                ++numThreads;
                deliverThreadStart(tid, parent, spawnSite);
                break;
              }
              case TraceRecorder::kThreadFinish:
                deliverThreadFinish(tid);
                break;
            }
        }
    }

    // An abort requested after the last step flag still ends its
    // group as Aborted, with every step counted — as a live run that
    // aborts during its final instruction does.
    if (abortPending())
        freezeAtBoundary();

    // Groups still running saw the whole stream: they report the
    // recorded run's outcome.
    OHA_ASSERT(runningGroups() == 0 || stepsStarted == trace_.result.steps,
               "trace step flags diverge from recorded step count");
    RunResult execution;
    execution.status = trace_.result.status;
    execution.abortReason = trace_.result.abortReason;
    execution.abortMeta = trace_.result.abortMeta;
    execution.steps = trace_.result.steps;
    execution.schedule = trace_.result.schedule;
    execution.totalEvents = totalEvents;
    execution.numThreads = numThreads;
    execution.outputs = std::move(outputs);
    return groupResults(std::move(execution));
}

// ----------------------------------------------------------------- testing

namespace testing {

std::size_t
byteOffsetAfterStep(const ir::Module &module, const TraceStore &store,
                    std::uint64_t step)
{
    // Record-skipping decode: same framing as TraceReplayer::runGroups()
    // minus dispatch.  Offsets are relative to the concatenated
    // stream so the result is usable as a spill threshold.
    std::size_t base = 0;
    std::uint64_t steps = 0;
    for (std::size_t seg = 0; seg < store.numSegments(); ++seg) {
        const bool hasValues =
            store.header(seg).flags & SegmentHeader::kFlagHasValues;
        SegmentCursor reader = store.cursor(seg);
        std::int64_t prevInstr = 0;
        while (!reader.atEnd()) {
            const std::size_t recordStart = base + reader.consumed();
            const std::uint8_t header = reader.byte();
            if ((header & 4) && ++steps == step + 1)
                return recordStart;
            if ((header >> 3) == TraceRecorder::kTidEscape)
                reader.varint();
            switch (header & 3) {
              case TraceRecorder::kInstrEvent: {
                prevInstr += reader.zigzag();
                const ir::Instruction &ins =
                    module.instr(static_cast<InstrId>(prevInstr));
                switch (ins.op) {
                  case ir::Opcode::Load:
                  case ir::Opcode::Store:
                    reader.zigzag();
                    reader.varint();
                    if (hasValues)
                        decodeTraceValue(reader);
                    break;
                  case ir::Opcode::Lock:
                  case ir::Opcode::Unlock:
                    reader.zigzag();
                    reader.varint();
                    break;
                  case ir::Opcode::ICall:
                  case ir::Opcode::Spawn:
                  case ir::Opcode::Join:
                    reader.varint();
                    break;
                  case ir::Opcode::Output:
                    reader.zigzag();
                    break;
                  default:
                    break;
                }
                break;
              }
              case TraceRecorder::kBlockEnter:
                reader.zigzag();
                break;
              case TraceRecorder::kThreadStart:
                reader.varint();
                reader.varint();
                break;
              default: // kThreadFinish: header byte only
                break;
            }
        }
        base += static_cast<std::size_t>(store.header(seg).bytes);
    }
    return base;
}

} // namespace testing

} // namespace oha::exec
