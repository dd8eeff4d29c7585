#ifndef GKNN_TOOLS_ANALYZER_PARSER_H_
#define GKNN_TOOLS_ANALYZER_PARSER_H_

#include <string>
#include <vector>

#include "lexer.h"
#include "model.h"

namespace gknn::check {

/// Phase A: structural scan of one lexed file. Registers classes (member
/// types, lockdep members, method return types), records every function
/// *definition* with its body token range, and registers free-function
/// return types. Tuned to this codebase's idioms — see docs/STATIC_ANALYSIS.md
/// for exactly what it understands.
void ScanStructure(const LexedFile& file, Program* program);

/// Phase B: event extraction over every function body recorded for `file`
/// in phase A. Requires phase A to have run over ALL files first, because
/// call resolution uses the program-wide class and function tables.
/// Appends span/status findings that are purely intraprocedural to
/// `findings`.
void ExtractEvents(const LexedFile& file, Program* program,
                   std::vector<Finding>* findings);

/// Token-level style rules:
///   raw-mutex      — `std::mutex` & friends instead of the lockdep
///                    wrappers (applies to every analyzed file; lockdep.*
///                    is never handed to the analyzer in the first place).
///   device-span    — `.device_span()` outside src/gpusim/
///                    (`flag_device_span` is false for gpusim files and
///                    files outside src/).
///   kernel-capture — a default-capture lambda (`[&]` / `[=]`) taking a
///                    ThreadCtx& / WarpCtx&: kernel lambdas enumerate their
///                    captures, since a by-reference capture of a host
///                    temporary is the dangling pointer a real CUDA launch
///                    turns into UB (`flag_kernel_capture`: src/ files).
void StyleScan(const LexedFile& file, bool flag_raw_mutex,
               bool flag_device_span, bool flag_kernel_capture,
               std::vector<Finding>* findings);

}  // namespace gknn::check

#endif  // GKNN_TOOLS_ANALYZER_PARSER_H_
