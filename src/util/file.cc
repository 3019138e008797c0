#include "util/file.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace sdbp::util
{

bool
atomicWriteFile(const std::string &path, const std::string &contents)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        return false;
    const bool wrote =
        std::fwrite(contents.data(), 1, contents.size(), f) ==
            contents.size() &&
        std::fflush(f) == 0;
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::string
readFile(const std::string &path, bool *ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        if (ok)
            *ok = false;
        return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (ok)
        *ok = in.good() || in.eof();
    return buf.str();
}

} // namespace sdbp::util
