/**
 * @file
 * Deterministic source-level edits over OHA-IR modules, for the
 * service benchmark's edited-module requests and the tests.
 *
 * Edits operate on the printed text form and re-parse, exactly like a
 * developer editing a source file between two analysis-service
 * requests: the edited module has fresh instruction/block ids and a
 * new fingerprint, so its static phase is solved from scratch.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"

namespace oha::workloads {

/**
 * Insert a small pointer-relevant prologue (two fresh allocations and
 * a store linking them) at the top of the entry block of every
 * function in @p names, via print -> text edit -> parse.  Changes the
 * edited functions' points-to results while leaving every other
 * function's printed text untouched.
 */
std::unique_ptr<ir::Module>
editFunctions(const ir::Module &module,
              const std::vector<std::string> &names);

/** The first @p count function names of @p module in definition
 *  order. */
std::vector<std::string> firstFunctionNames(const ir::Module &module,
                                            std::size_t count);

/**
 * Scale @p module to @p copies copies of its function set (copy 0
 * verbatim, later copies with `__<c>`-suffixed function names), all
 * sharing the original globals.  Dispatch-table workloads get
 * superlinearly harder to analyze: every copy registers its own
 * functions in the shared tables, so indirect-call target sets grow
 * with the copy count (ohabench's batch-coldcode workload).
 */
std::unique_ptr<ir::Module> scaleModule(const ir::Module &module,
                                        std::size_t copies);

} // namespace oha::workloads
