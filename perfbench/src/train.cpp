/**
 * @file
 * @brief Training phase: parse the LIBSVM training file, fit a linear LS-SVM
 *        with the OpenMP backend (one-vs-all for the six-class SAT-6 data),
 *        score the held-out split.
 *
 * The traced run rebuilds `fit()` from the same public pieces the OpenMP
 * backend uses (`reduced_rhs`, `q_operator`, `conjugate_gradients` over a
 * timing operator, `recover_bias`, `expand_alpha`) so every `apply` gets its
 * own span, and checks that the composition reproduces `fit()`.
 */

#include "harness.hpp"

#include "plssvm/backends/openmp/csvm.hpp"
#include "plssvm/backends/openmp/q_operator.hpp"
#include "plssvm/core/lssvm_math.hpp"
#include "plssvm/datagen/make_classification.hpp"
#include "plssvm/datagen/sat6.hpp"
#include "plssvm/io/libsvm.hpp"
#include "plssvm/solver/cg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

using plssvm::aos_matrix;
using plssvm::data_set;
using plssvm::model;

/// CG epsilon of every fit (the paper's runtime/accuracy trade-off point
/// used by the workloads; C keeps its LIBSVM default).
constexpr double solver_epsilon = 1e-3;

/// Channels of a SAT-6 image (R, G, B, IR).
constexpr std::size_t sat6_channels = 4;

[[nodiscard]] plssvm::parameter make_parameter() {
    plssvm::parameter params;
    params.kernel = plssvm::kernel_type::linear;
    return params;
}

/// The "sat6" data has six classes and is fit one-vs-all; "planes" is binary.
[[nodiscard]] bool is_multiclass(const options &opts) { return opts.str("data") == "sat6"; }

/// Seeded full data set (train rows first, then the held-out rows).
[[nodiscard]] data_set<double> generate(const options &opts) {
    const std::size_t total = opts.count("train_points") + opts.count("test_points");
    if (is_multiclass(opts)) {
        // square images: features = image_size^2 * channels
        plssvm::datagen::sat6_params gen;
        gen.num_images = total;
        gen.image_size = static_cast<std::size_t>(std::lround(std::sqrt(opts.num("features") / sat6_channels)));
        gen.num_channels = sat6_channels;
        if (gen.image_size * gen.image_size * sat6_channels != opts.count("features")) {
            throw std::invalid_argument{ "sat6 features must be image_size^2 * 4" };
        }
        gen.binary_labels = false;
        gen.seed = opts.count("seed");
        return plssvm::datagen::make_sat6<double>(gen);
    }
    // the "planes" problem of bench_fig1_runtime: class separation normalised
    // so the Bayes accuracy stays ~97-98 % whatever the dimension
    plssvm::datagen::classification_params gen;
    gen.num_points = total;
    gen.num_features = opts.count("features");
    gen.class_sep = 2.7 / std::sqrt(static_cast<double>(gen.num_features / 2));
    gen.flip_y = 0.01;
    gen.seed = opts.count("seed");
    return plssvm::datagen::make_classification<double>(gen);
}

void write_rows(const std::string &file, const data_set<double> &all, const std::size_t begin, const std::size_t end) {
    aos_matrix<double> points{ end - begin, all.num_features() };
    std::vector<double> labels(end - begin);
    for (std::size_t r = begin; r < end; ++r) {
        const double *src = all.points().row_data(r);
        std::copy(src, src + all.num_features(), points.row_data(r - begin));
        labels[r - begin] = all.labels()[r];
    }
    plssvm::io::write_libsvm_file(file, points, &labels);
}

/// `linear_operator` that records a span around every `apply` of the
/// wrapped operator, parented to the enclosing CG span.
class timing_operator final : public plssvm::solver::linear_operator<double> {
  public:
    timing_operator(plssvm::solver::linear_operator<double> &inner, span_recorder &rec, const long parent) :
        inner_{ inner },
        rec_{ rec },
        parent_{ parent } {}

    [[nodiscard]] std::size_t size() const noexcept override { return inner_.size(); }

    void apply(const std::vector<double> &x, std::vector<double> &out) override {
        const double start = rec_.now();
        inner_.apply(x, out);
        rec_.add("openmp.q_apply", start, rec_.now(), parent_);
    }

  private:
    plssvm::solver::linear_operator<double> &inner_;
    span_recorder &rec_;
    long parent_;
};

struct composed_fit {
    std::vector<double> alpha;
    double bias{ 0.0 };
    plssvm::solver::cg_result cg;
};

/// `openmp::csvm::fit` rebuilt from its public pieces, one span per layer.
[[nodiscard]] composed_fit compose_fit(const data_set<double> &data, const plssvm::parameter &params,
                                       const plssvm::solver_control &ctrl, span_recorder &rec, const long parent) {
    const std::vector<double> &labels = data.binary_labels();
    const plssvm::kernel_params<double> kp{ params.kernel, params.degree, params.effective_gamma(data.num_features()), params.coef0 };
    const std::vector<double> rhs = plssvm::reduced_rhs(labels);

    const long init_span = rec.open("openmp.q_init", parent);
    plssvm::backend::openmp::q_operator<double> op{ data.points(), kp, params.cost };
    rec.close(init_span);

    composed_fit out;
    std::vector<double> alpha_tilde(op.size(), 0.0);
    const long cg_span = rec.open("solver.cg", parent);
    timing_operator timed{ op, rec, cg_span };
    out.cg = plssvm::solver::conjugate_gradients<double>(timed, rhs, alpha_tilde, ctrl);
    rec.close(cg_span);

    const long recover_span = rec.open("lssvm.recover", parent);
    out.bias = plssvm::recover_bias(alpha_tilde, op.q(), op.q_mm(), labels.back());
    out.alpha = plssvm::expand_alpha(std::move(alpha_tilde));
    rec.close(recover_span);
    return out;
}

/// Whether the composition reproduces the model `fit()` returned, within
/// the run-to-run drift of `fit()` itself: the OpenMP reductions inside
/// `apply` and the CG dot products combine their partial sums in thread
/// arrival order, so two `fit()` calls on the same data already differ.
/// On the six-class SAT-6 heads two calls ended up to 4 of ~60 iterations
/// apart, with alpha up to 1.4e-3 of its scale apart. Accepted: iterations
/// within 15 % (at least 2), alpha and bias within `drift` of the scale.
[[nodiscard]] bool matches(const composed_fit &c, const model<double> &fitted) {
    constexpr double drift = 1e-2;
    const auto it_diff = static_cast<double>(c.cg.iterations > fitted.num_iterations() ? c.cg.iterations - fitted.num_iterations() : fitted.num_iterations() - c.cg.iterations);
    if (it_diff > std::max(2.0, 0.15 * static_cast<double>(fitted.num_iterations())) || c.alpha.size() != fitted.alpha().size()) {
        std::fprintf(stderr, "composition: %zu iterations, fit() took %zu\n", c.cg.iterations, fitted.num_iterations());
        return false;
    }
    double scale = 1.0;
    double diff = 0.0;
    for (std::size_t i = 0; i < c.alpha.size(); ++i) {
        scale = std::max(scale, std::abs(fitted.alpha()[i]));
        diff = std::max(diff, std::abs(c.alpha[i] - fitted.alpha()[i]));
    }
    scale = std::max(scale, std::abs(fitted.bias()));
    const bool ok = diff <= drift * scale && std::abs(c.bias - fitted.bias()) <= drift * scale;
    if (!ok) {
        std::fprintf(stderr, "composition: max alpha diff %.3g (scale %.3g), bias diff %.3g\n", diff, scale, std::abs(c.bias - fitted.bias()));
    }
    return ok;
}

/// Binary view of a multi-class set: @p class_label (+1) vs. the rest (-1),
/// built exactly as `one_vs_all::fit` builds it.
[[nodiscard]] data_set<double> one_vs_rest(const data_set<double> &data, const double class_label) {
    std::vector<double> binary(data.num_data_points());
    for (std::size_t i = 0; i < binary.size(); ++i) {
        binary[i] = data.labels()[i] == class_label ? 1.0 : -1.0;
    }
    return data_set<double>{ data.points(), std::move(binary) };
}

}  // namespace

void write_inputs(const options &opts, const std::string &train_file, const std::string &test_file) {
    const data_set<double> all = generate(opts);
    const std::size_t num_train = opts.count("train_points");
    write_rows(train_file, all, 0, num_train);
    write_rows(test_file, all, num_train, all.num_data_points());
}

trained_state run_training(const options &opts, const std::string &train_file, const std::string &test_file,
                           span_recorder *rec, run_report &report) {
    const plssvm::parameter params = make_parameter();
    const plssvm::solver_control ctrl{ .epsilon = solver_epsilon };
    const bool multiclass = is_multiclass(opts);
    const bool traced = rec != nullptr;

    // parse: the set-up of the training workloads, repeated for a median
    std::vector<double> parse_s;
    std::optional<data_set<double>> train;
    for (std::size_t r = 0; r < opts.count("parse_reps"); ++r) {
        const double start = rec != nullptr ? rec->now() : 0.0;
        const auto t0 = clock_type::now();
        train.emplace(data_set<double>::from_libsvm_file(train_file));
        parse_s.push_back(seconds_between(t0, clock_type::now()));
        if (rec != nullptr) {
            rec->add("io.parse", start, rec->now());
        }
        report.record(true);
    }
    trained_state state;
    state.test.emplace(data_set<double>::from_libsvm_file(test_file, train->num_features()));

    // the untraced run needs one model; the traced run times fit_reps fits
    // and keeps the last as the reference of the composition
    const std::size_t fits = traced ? opts.count("fit_reps") : 1;
    std::vector<double> fit_s;
    for (std::size_t r = 0; r < fits; ++r) {
        try {
            const auto t0 = clock_type::now();
            if (multiclass) {
                plssvm::ext::one_vs_all<double> ova{ plssvm::backend_type::openmp, params };
                state.ensemble.emplace(ova.fit(*train, ctrl));
            } else {
                plssvm::backend::openmp::csvm<double> svm{ params };
                state.binary.emplace(svm.fit(*train, ctrl));
            }
            fit_s.push_back(seconds_between(t0, clock_type::now()));
            std::fprintf(stderr, "  fit %zu: %.3f s\n", r + 1, fit_s.back());
            report.record(true);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "fit failed: %s\n", e.what());
            report.record(false);
        }
    }
    if (fit_s.empty()) {
        throw std::runtime_error{ "no fit succeeded" };
    }

    // held-out accuracy of the fitted model
    double accuracy = 0.0;
    if (multiclass) {
        const plssvm::ext::one_vs_all<double> ova{ plssvm::backend_type::openmp, params };
        accuracy = ova.score(*state.ensemble, *state.test);
    } else {
        const plssvm::backend::openmp::csvm<double> svm{ params };
        accuracy = svm.score(*state.binary, *state.test);
    }

    if (!traced) {
        if (opts.str("focus") == "train") {
            report.set("setup_s", median(parse_s), "s");
        }
        report.set("test_accuracy", accuracy, "fraction");
        return state;
    }
    // the shared host only ever adds time, so the fastest fit is the
    // steadiest estimate of the code's own cost
    const double fastest_fit_s = *std::min_element(fit_s.begin(), fit_s.end());
    report.set("train_s", fastest_fit_s, "s");

    // traced composition of the same fit, checked against the reference
    const double fit_start = rec->now();
    const long fit_span = rec->open("fit");
    std::vector<double> residuals;
    bool reproduced = true;
    if (multiclass) {
        const std::vector<double> &class_labels = state.ensemble->class_labels();
        for (std::size_t c = 0; c < class_labels.size(); ++c) {
            const data_set<double> binary = one_vs_rest(*train, class_labels[c]);
            const composed_fit composed = compose_fit(binary, params, ctrl, *rec, fit_span);
            reproduced = reproduced && matches(composed, state.ensemble->binary_models()[c]);
            residuals.push_back(composed.cg.final_relative_residual);
        }
    } else {
        const composed_fit composed = compose_fit(*train, params, ctrl, *rec, fit_span);
        reproduced = matches(composed, *state.binary);
        residuals.push_back(composed.cg.final_relative_residual);
    }
    rec->close(fit_span);
    const double traced_fit_s = rec->now() - fit_start;
    report.record(reproduced, !reproduced);
    if (!reproduced) {
        std::fprintf(stderr, "the traced fit composition does not reproduce fit() (iterations, alpha or bias)\n");
    }

    // computed work of one apply: n^2 * d * c flops over the compulsory
    // traffic (the points once plus the x, out and q vectors)
    const double n = static_cast<double>(train->num_data_points() - 1);
    const double d = static_cast<double>(train->num_features());
    const double flops = n * n * d * opts.num("flops_per_feature");
    const double bytes = (n * d + 3.0 * n) * sizeof(double);

    const std::vector<double> applies = rec->durations("openmp.q_apply");
    const double apply_p50 = median(applies);
    const double share = rec->total_self_time("openmp.q_apply") / traced_fit_s;
    std::size_t iterations = 0;
    if (multiclass) {
        for (const auto &m : state.ensemble->binary_models()) {
            iterations += m.num_iterations();
        }
    } else {
        iterations = state.binary->num_iterations();
    }

    report.set("io.parse_ms", 1e3 * median(rec->durations("io.parse")), "ms");
    report.set("openmp.q_init_ms", 1e3 * median(rec->durations("openmp.q_init")), "ms");
    report.set("openmp.q_apply_ms", 1e3 * apply_p50, "ms");
    report.set("openmp.q_apply_calls", static_cast<double>(applies.size()), "count");
    report.set("openmp.q_apply_gflops", flops / apply_p50 / 1e9, "GFLOP/s");
    report.set("openmp.q_apply_flop_per_byte", flops / bytes, "flop/B");
    report.set("openmp.q_apply_share", share, "fraction");
    report.set("solver.iterations", static_cast<double>(iterations), "count");
    report.set("solver.final_residual", *std::max_element(residuals.begin(), residuals.end()), "ratio");
    report.set("solver.self_ms", 1e3 * rec->total_self_time("solver.cg"), "ms");
    if (opts.str("focus") == "train") {
        report.set("trace.overhead_frac", traced_fit_s / fastest_fit_s - 1.0, "fraction");
    }
    return state;
}

}  // namespace perfbench
