/**
 * @file
 * @brief Umbrella header of the batched inference serving subsystem.
 *
 * Typical usage:
 * @code
 * plssvm::serve::model_registry<double> registry;
 * auto engine = registry.load("churn-v3", trained_model);
 * auto labels = engine->predict(points);                 // sync, batched
 * auto label = engine->submit({0.2, -1.3, 0.7}).get();   // async, coalesced
 * auto stats = engine->stats();                          // p50/p99, req/s
 * @endcode
 */

#ifndef PLSSVM_SERVE_SERVE_HPP_
#define PLSSVM_SERVE_SERVE_HPP_

#include "plssvm/serve/admission.hpp"           // IWYU pragma: export
#include "plssvm/serve/batch_kernels.hpp"        // IWYU pragma: export
#include "plssvm/serve/compiled_model.hpp"      // IWYU pragma: export
#include "plssvm/serve/executor.hpp"            // IWYU pragma: export
#include "plssvm/serve/fault.hpp"               // IWYU pragma: export
#include "plssvm/serve/inference_engine.hpp"    // IWYU pragma: export
#include "plssvm/serve/predict_dispatcher.hpp"  // IWYU pragma: export
#include "plssvm/serve/micro_batcher.hpp"       // IWYU pragma: export
#include "plssvm/serve/model_registry.hpp"      // IWYU pragma: export
#include "plssvm/serve/net/framing.hpp"         // IWYU pragma: export
#include "plssvm/serve/net/protocol.hpp"        // IWYU pragma: export
#include "plssvm/serve/net/server.hpp"          // IWYU pragma: export
#include "plssvm/serve/obs.hpp"                 // IWYU pragma: export
#include "plssvm/serve/qos.hpp"                 // IWYU pragma: export
#include "plssvm/serve/serve_stats.hpp"         // IWYU pragma: export
#include "plssvm/serve/snapshot.hpp"            // IWYU pragma: export

#endif  // PLSSVM_SERVE_SERVE_HPP_
