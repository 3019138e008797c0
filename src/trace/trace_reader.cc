#include "trace/trace_reader.hh"

#include <cstring>

#include "trace/champsim.hh"
#include "trace/trace_file.hh"
#include "util/logging.hh"

namespace sdbp
{

namespace
{

/** Compression command for a path, empty for plain files. */
std::string
decompressCommand(const std::string &path)
{
    auto ends_with = [&path](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return path.size() >= n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    if (ends_with(".gz"))
        return "zcat";
    if (ends_with(".xz"))
        return "xzcat";
    return {};
}

} // anonymous namespace

TraceInput::TraceInput(const std::string &path) : path_(path)
{
    open();
}

TraceInput::~TraceInput()
{
    close();
}

void
TraceInput::open()
{
    const std::string cmd = decompressCommand(path_);
    if (cmd.empty()) {
        piped_ = false;
        file_ = std::fopen(path_.c_str(), "rb");
        if (!file_)
            fatal("cannot open trace file '" + path_ + "'");
        return;
    }
#if defined(__unix__) || defined(__APPLE__)
    // The path is single-quoted for the shell; a quote inside the
    // path would break out of it, so refuse rather than mis-spawn.
    if (path_.find('\'') != std::string::npos)
        fatal("trace path '" + path_ + "' contains a quote");
    piped_ = true;
    const std::string full = cmd + " -- '" + path_ + "'";
    file_ = ::popen(full.c_str(), "r");
    if (!file_)
        fatal("cannot spawn '" + cmd + "' for trace '" + path_ + "'");
#else
    fatal("compressed trace '" + path_ +
          "' needs popen (unsupported platform)");
#endif
}

void
TraceInput::close()
{
    if (!file_)
        return;
#if defined(__unix__) || defined(__APPLE__)
    if (piped_)
        ::pclose(file_);
    else
        std::fclose(file_);
#else
    std::fclose(file_);
#endif
    file_ = nullptr;
}

std::size_t
TraceInput::read(void *buf, std::size_t bytes)
{
    // fread on a pipe may return short counts mid-stream; loop until
    // the request is filled or the stream genuinely ends.
    std::size_t got = 0;
    auto *out = static_cast<unsigned char *>(buf);
    while (got < bytes) {
        const std::size_t n =
            std::fread(out + got, 1, bytes - got, file_);
        if (n == 0)
            break;
        got += n;
    }
    return got;
}

void
TraceInput::rewind()
{
    if (!piped_) {
        std::fseek(file_, 0, SEEK_SET);
        return;
    }
    // Pipes cannot seek; re-spawn the decompressor.
    close();
    open();
}

// --- NativeTraceReader ----------------------------------------------

NativeTraceReader::NativeTraceReader(const std::string &path)
    : input_(path)
{
    readHeader();
}

void
NativeTraceReader::readHeader()
{
    NativeTraceHeader header{};
    if (input_.read(&header, sizeof(header)) != sizeof(header))
        fatal("truncated header in trace '" + input_.path() + "'");
    if (header.magic != kNativeTraceMagic)
        fatal("'" + input_.path() + "' is not an sdbp trace");
    if (header.version != kNativeTraceVersion)
        fatal("unsupported trace version in '" + input_.path() + "'");
    declared_ = header.count;
    consumed_ = 0;
}

std::size_t
NativeTraceReader::readBatch(std::span<Access> out)
{
    std::size_t produced = 0;
    while (produced < out.size() && consumed_ < declared_) {
        TraceFileRecord r{};
        if (input_.read(&r, sizeof(r)) != sizeof(r))
            fatal("truncated record in trace '" + input_.path() + "'");
        Access rec;
        rec.pc = r.pc;
        rec.addr = r.addr;
        rec.gap = r.gap;
        rec.isWrite = r.isWrite != 0;
        rec.dependsOnPrevLoad = r.dependsOnPrevLoad != 0;
        out[produced++] = rec;
        ++consumed_;
    }
    return produced;
}

void
NativeTraceReader::rewind()
{
    input_.rewind();
    readHeader();
}

// --- Format dispatch ------------------------------------------------

std::unique_ptr<TraceReader>
openTraceReader(const std::string &path)
{
    // Probe the first 8 decoded bytes for the native magic; ChampSim
    // traces have no magic, so everything else falls through to the
    // ChampSim decoder (whose record validation catches junk).
    std::uint64_t probe = 0;
    std::size_t got = 0;
    {
        TraceInput input(path);
        got = input.read(&probe, sizeof(probe));
    }
    if (got == 0)
        fatal("trace '" + path + "' is empty (or not decompressible)");
    if (got == sizeof(probe) && probe == kNativeTraceMagic)
        return std::make_unique<NativeTraceReader>(path);
    return std::make_unique<ChampSimTraceReader>(path);
}

} // namespace sdbp
