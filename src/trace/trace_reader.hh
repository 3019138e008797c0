/**
 * @file
 * Streaming trace ingestion: a byte source that transparently
 * decompresses .gz/.xz files (popen to zcat/xzcat — no link-time
 * dependency) and the TraceReader interface every on-disk trace
 * format implements.  Readers decode into trace::Access in batches
 * and never materialize the whole trace, so arbitrarily large
 * reference traces stream in bounded memory (DESIGN.md §17).
 */

#ifndef SDBP_TRACE_TRACE_READER_HH
#define SDBP_TRACE_TRACE_READER_HH

#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include "trace/access.hh"

namespace sdbp
{

/**
 * A (possibly compressed) byte stream over one trace file.  Plain
 * files use fopen; paths ending in .gz/.xz are piped through
 * zcat/xzcat, selected purely by extension.  Malformed paths and
 * open failures are fatal(): a missing trace is a user error, and
 * the one-line diagnostic is the CLI contract (DESIGN.md §11).
 */
class TraceInput
{
  public:
    explicit TraceInput(const std::string &path);
    ~TraceInput();

    TraceInput(const TraceInput &) = delete;
    TraceInput &operator=(const TraceInput &) = delete;

    /** Read up to @p bytes; short counts only at end of stream. */
    std::size_t read(void *buf, std::size_t bytes);

    /** Reopen the stream at the beginning (pipes are re-spawned). */
    void rewind();

    const std::string &path() const { return path_; }
    bool compressed() const { return piped_; }

  private:
    void open();
    void close();

    std::string path_;
    std::FILE *file_ = nullptr;
    bool piped_ = false;
};

/**
 * Abstract decoder of one trace file into Access records.  One
 * readBatch call decodes up to out.size() records and reports how
 * many it produced; 0 means end of trace.  rewind() restarts the
 * decode from the first record.  Corrupt input (bad magic, truncated
 * record) is fatal() with the offending path in the message.
 */
class TraceReader
{
  public:
    virtual ~TraceReader() = default;

    virtual std::size_t readBatch(std::span<Access> out) = 0;
    virtual void rewind() = 0;

    /** Display name of the source: its file path. */
    virtual const std::string &source() const = 0;
};

/** Streaming reader for the native sdbp trace format. */
class NativeTraceReader final : public TraceReader
{
  public:
    explicit NativeTraceReader(const std::string &path);

    std::size_t readBatch(std::span<Access> out) override;
    void rewind() override;
    const std::string &source() const override
    {
        return input_.path();
    }

    /** Record count declared by the header. */
    std::uint64_t declaredRecords() const { return declared_; }

  private:
    void readHeader();

    TraceInput input_;
    std::uint64_t declared_ = 0;
    std::uint64_t consumed_ = 0;
};

/**
 * Open @p path with the right decoder: the first bytes are probed
 * for the native magic; anything else is treated as a ChampSim
 * trace.  Compression is handled either way.  fatal() on unreadable
 * or unrecognizably corrupt files.
 */
std::unique_ptr<TraceReader> openTraceReader(const std::string &path);

} // namespace sdbp

#endif // SDBP_TRACE_TRACE_READER_HH
