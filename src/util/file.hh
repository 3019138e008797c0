/**
 * @file
 * Crash-safe file output.
 *
 * Every artifact the experiment engine persists (run JSON, bench
 * reports, sweep manifests) goes through atomicWriteFile: the
 * contents land in a same-directory temporary first and are
 * rename(2)d into place, so a crash or SIGKILL at any instant leaves
 * either the previous file or the complete new one — never a
 * truncated JSON document.
 */

#ifndef SDBP_UTIL_FILE_HH
#define SDBP_UTIL_FILE_HH

#include <string>

namespace sdbp::util
{

/**
 * Atomically replace @p path with @p contents via a
 * "<path>.tmp.<pid>" sibling and rename.  Returns false (and cleans
 * up the temporary) when the directory is missing or unwritable.
 */
bool atomicWriteFile(const std::string &path,
                     const std::string &contents);

/** Read a whole file; nullopt-style empty return is not distinguishable
 *  from an empty file, so @p ok reports success when non-null. */
std::string readFile(const std::string &path, bool *ok = nullptr);

} // namespace sdbp::util

#endif // SDBP_UTIL_FILE_HH
