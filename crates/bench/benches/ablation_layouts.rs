//! Ablation: the five placement strategies head to head (the §3.2
//! micro-positioning vs bipartite comparison).

use protolat_bench::harness::Criterion;
use kcode::layout::{build_image, LayoutRequest, LayoutStrategy};
use kcode::ImageConfig;
use protolat_bench::TcpCtx;
use protolat_core::timing::{time_cell, UNTRACED_PER_HOP_US};

fn bench(c: &mut Criterion) {
    let ctx = TcpCtx::new();
    let f_tx = ctx.world.lance_model.f_tx;
    let strategies = [
        ("link_order", LayoutStrategy::LinkOrder),
        ("linear", LayoutStrategy::Linear),
        ("bipartite", LayoutStrategy::Bipartite),
        ("micro_position", LayoutStrategy::MicroPosition),
        ("pessimal", LayoutStrategy::Bad),
    ];
    println!("layout ablation (TCP/IP, outlining on):");
    for (name, strat) in strategies {
        let img = build_image(
            &ctx.world.program,
            LayoutRequest::new(
                strat,
                ImageConfig::plain(name).with_outline(true).with_specialization(true),
            )
            .with_canonical(&ctx.canonical),
        );
        let cell = time_cell(&ctx.episodes, &img, &img, f_tx, UNTRACED_PER_HOP_US);
        let (t, cold) = (cell.timing, cell.cold);
        println!(
            "  {name:<15} e2e {:>6.1} us  mCPI {:.2}  i-repl {}",
            t.e2e_us,
            t.client.mcpi(),
            cold.icache.replacement_misses
        );
    }
    println!();

    let mut g = c.benchmark_group("ablation_layouts");
    g.sample_size(10);
    for (name, strat) in strategies {
        g.bench_function(name, |b| {
            b.iter(|| {
                build_image(
                    &ctx.world.program,
                    LayoutRequest::new(
                        strat,
                        ImageConfig::plain(name).with_outline(true),
                    )
                    .with_canonical(&ctx.canonical),
                )
                .code_end
            })
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::new("ablation_layouts");
    bench(&mut c);
    c.report();
}
